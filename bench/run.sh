#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the caller's arguments. Everything the Go
# toolchain writes (build cache, temp files, telemetry) is pointed inside
# the checkout, so a run touches nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/pj2kbench" .)
exec "$build/pj2kbench" "$@"
