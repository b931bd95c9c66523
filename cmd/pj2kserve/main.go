// Command pj2kserve serves JPEG2000 codestreams progressively over HTTP:
// windowed region decodes at any resolution/quality, layer-truncated
// codestream slices, and geometry/stats endpoints. Images are registered
// lazily at startup — only headers and the tile-part chain are read, tile
// bodies stay on disk — so memory scales with the tiles actually served, not
// the corpus; per-request work is bounded by the tiles a window touches and
// amortized by the decoded-tile cache.
//
//	pj2kserve -dir images/ [-addr :8732] [-cache-mb 256] [-tile-workers 1] \
//	          [-timeout 0] [-max-inflight 64] [-resilient] \
//	          [-io-retries 2] [-io-read-timeout 0] \
//	          [-pprof] [-trace-out trace.out]
//
// The hardening knobs: -timeout bounds each decode-bearing request (504 past
// the deadline), -max-inflight sheds excess load with 503 + Retry-After
// instead of queueing without bound, and -resilient serves damaged
// codestreams degraded (concealed tiles + damage counters in /stats) instead
// of failing them. The IO fault-tolerance knobs: -io-retries retries
// transient source-read failures with exponential backoff, and
// -io-read-timeout abandons (and retries) reads a stalled disk or mount
// never answers; an image whose source keeps failing is quarantined
// (503 + Retry-After) and re-probed in the background until it reads again.
//
// The observability knobs: -pprof mounts net/http/pprof under /debug/pprof/
// (off by default — profiles expose internals and cost CPU), and -trace-out
// records a runtime execution trace from startup until shutdown, for
// `go tool trace` inspection of scheduling across the decode pool. Both are
// opt-in; /metrics and /stats are always on.
//
// Endpoints (see internal/serve for the full contract):
//
//	GET /img/{id}?x0=&y0=&x1=&y1=&reduce=&layers=&format=pgm|raw
//	GET /img/{id}/info
//	GET /img/{id}/stream?layers=N
//	GET /stats | /metrics
//	GET /healthz | /readyz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/trace"
	"strings"
	"syscall"
	"time"

	"pj2k/internal/serve"
	"pj2k/internal/t2"
)

func main() {
	addr := flag.String("addr", ":8732", "listen address")
	dir := flag.String("dir", "", "directory of *.j2k codestreams to serve (id = basename)")
	cacheMB := flag.Int64("cache-mb", 256, "decoded-tile cache budget in MiB, tiles held as the bytes a response carries (0 disables caching)")
	tileWorkers := flag.Int("tile-workers", 1, "parallel workers per tile decode (request concurrency is separate)")
	maxMPix := flag.Int64("max-mpix", 64, "largest window in megapixels a single request may ask for")
	timeout := flag.Duration("timeout", 0, "per-request decode deadline (0 = unbounded)")
	maxInFlight := flag.Int("max-inflight", serve.DefaultMaxInFlight,
		"max concurrently admitted decode requests before shedding with 503 (-1 = unbounded)")
	resilient := flag.Bool("resilient", false, "serve damaged codestreams degraded instead of failing them")
	ioRetries := flag.Int("io-retries", serve.DefaultIORetries,
		"retries per source read after a transient IO failure (0 disables retries)")
	ioReadTimeout := flag.Duration("io-read-timeout", 0,
		"per-read deadline on source IO; a stalled read is abandoned and retried (0 = unbounded)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	traceOut := flag.String("trace-out", "", "record a runtime execution trace to this file until shutdown")
	flag.Parse()

	store := serve.NewStore()
	n := 0
	if *dir != "" {
		var err error
		n, err = store.LoadDir(*dir)
		if err != nil {
			// LoadDir skips unloadable files and keeps going; what arrives
			// here is the joined per-file errors. One corrupt file is a
			// warning, not a reason to take the whole instance down — unless
			// nothing at all loaded, which the n == 0 exit below catches.
			log.Printf("warning: loading %s: %v", *dir, err)
		}
	}
	// Positional arguments are individual codestream files, registered as
	// lazy file-backed sources like -dir: startup reads headers and the
	// tile-part chain, tile bodies stay on disk until a request needs them.
	for _, path := range flag.Args() {
		src, err := t2.OpenFile(path)
		if err != nil {
			log.Fatal(err)
		}
		id := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		if _, err := store.AddSource(id, src); err != nil {
			src.Close()
			if !*resilient {
				log.Fatal(err)
			}
			log.Printf("warning: skipping %s: %v", path, err)
			continue
		}
		n++
	}
	if n == 0 {
		fmt.Fprintln(os.Stderr, "pj2kserve: no images; pass -dir or codestream files")
		flag.Usage()
		os.Exit(2)
	}
	for _, id := range store.IDs() {
		img, _ := store.Get(id)
		p := img.Params()
		log.Printf("serving %q: %dx%d, %d components, %d tiles, %d levels, %d layers, %d bytes",
			id, p.Width, p.Height, p.Components(), img.Index.NumTiles(), p.Levels, p.Layers, img.Size())
	}
	cacheBytes := *cacheMB << 20
	if *cacheMB <= 0 {
		cacheBytes = -1 // explicit off, not the package default
	}
	retries := *ioRetries
	if retries <= 0 {
		retries = -1 // explicit off, not the package default
	}
	srv := serve.New(store, serve.Options{
		CacheBytes:    cacheBytes,
		TileWorkers:   *tileWorkers,
		MaxPixels:     *maxMPix << 20,
		Timeout:       *timeout,
		MaxInFlight:   *maxInFlight,
		Resilient:     *resilient,
		IORetries:     retries,
		IOReadTimeout: *ioReadTimeout,
		Pprof:         *pprofOn,
	})

	// The execution trace runs until shutdown, so -trace-out needs the server
	// to stop cleanly on SIGINT/SIGTERM (trace.Stop flushes buffered events;
	// a killed process leaves a truncated, unreadable trace). Graceful
	// shutdown is the right behavior regardless, so it is unconditional.
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		if err := trace.Start(f); err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		traceFile = f
		log.Printf("tracing execution to %s", *traceOut)
	}

	hs := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	log.Printf("listening on %s (%d images, %d MiB tile cache, timeout %v, max in-flight %d, resilient %v, pprof %v)",
		*addr, n, *cacheMB, *timeout, *maxInFlight, *resilient, *pprofOn)

	select {
	case err := <-done:
		log.Fatal(err)
	case <-ctx.Done():
		log.Print("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("shutdown: %v", err)
		}
		srv.Close()
		if err := store.Close(); err != nil {
			log.Printf("closing store: %v", err)
		}
		if traceFile != nil {
			trace.Stop()
			if err := traceFile.Close(); err != nil {
				log.Printf("trace-out: %v", err)
			}
			log.Printf("trace written to %s", *traceOut)
		}
	}
}
