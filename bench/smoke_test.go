package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// smokeConfig is the benchmark at -scale 0.02: the small corpus, a fifth of a
// second per timed phase, the shortest request lists.
func smokeConfig(t testing.TB, seed uint64, trace bool) config {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return config{
		seed: seed, seconds: runSeconds * 0.02, trace: trace, outDir: dir,
		P: 2, g: smokeGeometry, cycleScale: 0.02,
	}
}

// smokeRuns memoizes runs by (workload, seed, trace, repeat), so the tests of
// this package share them.
var smokeRuns struct {
	sync.Mutex
	m map[[4]any]*smokeRun
}

type smokeRun struct {
	res   *result
	trace traceFile
}

func runSmoke(t *testing.T, name string, seed uint64, trace bool, repeat int) *smokeRun {
	t.Helper()
	smokeRuns.Lock()
	defer smokeRuns.Unlock()
	key := [4]any{name, seed, trace, repeat}
	if r, ok := smokeRuns.m[key]; ok {
		return r
	}
	cfg := smokeConfig(t, seed, trace)
	res, err := runWorkload(name, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	run := &smokeRun{res: res}
	if trace {
		raw, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &run.trace); err != nil {
			t.Fatal(err)
		}
	}
	if smokeRuns.m == nil {
		smokeRuns.m = map[[4]any]*smokeRun{}
	}
	smokeRuns.m[key] = run
	return run
}

// benchmarkJSON mirrors the keys of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) (benchmarkJSON, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc, raw
}

// TestManifestMatchesFile: BENCHMARK.json is exactly what the metric tables
// generate, and stays inside the limits of the driver's contract.
func TestManifestMatchesFile(t *testing.T) {
	doc, raw := readBenchmarkJSON(t)
	if !bytes.Equal(raw, manifest()) {
		t.Errorf("BENCHMARK.json differs from `go run . -manifest`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is malformed", u, n)
		}
	}
	if len(doc.Workloads) < 2 || len(doc.Workloads) > 8 {
		t.Errorf("%d workloads", len(doc.Workloads))
	}
	for _, w := range doc.Workloads {
		check(w.Name, "")
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) < 1 || len(doc.EndToEnd) > 16 || len(doc.PerLayer) < 1 || len(doc.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(doc.EndToEnd), len(doc.PerLayer))
	}
	setup := false
	for _, m := range doc.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound %v of %s", m.Bound, m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s (s, lower) is not among the end-to-end metrics")
	}
	for _, m := range doc.PerLayer {
		check(m.Name, m.Unit)
	}
	if len(raw) > 64<<10 || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("%d bytes, run_seconds %d", len(raw), doc.RunSeconds)
	}
}

// TestSmoke runs all five workloads, untraced and traced, on the small
// corpus, and asserts that each emits exactly the metric names BENCHMARK.json
// declares for that pass, every value finite, every operation correct.
func TestSmoke(t *testing.T) {
	doc, _ := readBenchmarkJSON(t)
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range doc.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	if len(doc.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(doc.Workloads), len(workloadDefs))
	}
	for _, w := range doc.Workloads {
		for _, traced := range []bool{false, true} {
			res := runSmoke(t, w.Name, 1, traced, 0).res
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d: %v", w.Name, traced, res.Correct, res.Failed, res.Attempted, res.Failures)
			}
			want := declared[traced]
			for n, v := range res.Metrics {
				if !nameRE.MatchString(n) {
					t.Errorf("%s: metric name %q", w.Name, n)
				}
				if u, ok := want[n]; !ok || u != v.Unit {
					t.Errorf("%s trace=%v: emitted %s (%s), not declared so in BENCHMARK.json", w.Name, traced, n, v.Unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v", w.Name, n, v.Value)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, n, v.Value)
				}
			}
			for n := range want {
				if _, ok := res.Metrics[n]; !ok {
					t.Errorf("%s trace=%v: %s declared in BENCHMARK.json but not emitted", w.Name, traced, n)
				}
			}
		}
	}
}

// TestWorkloadsDiscriminate checks, on the small corpus, the properties that
// make the workloads tell layers apart: tier-1 dominates encoding, serve-warm
// decodes nothing, serve-cold decodes on every request, serve-zipf both hits
// and misses.
func TestWorkloadsDiscriminate(t *testing.T) {
	get := func(w, m string) float64 { return runSmoke(t, w, 1, true, 0).res.Metrics[m].Value }
	if v := get("encode-batch", "jp2k.enc_stage_share.t1"); v < 0.5 {
		t.Errorf("encode-batch: tier-1 share of encode %v, want >= 0.5", v)
	}
	if v := get("serve-warm", "serve.tile_decodes_per_req"); v != 0 {
		t.Errorf("serve-warm: %v tile decodes per request, want 0", v)
	}
	if v := get("serve-warm", "serve.cache.hit_ratio"); v != 1 {
		t.Errorf("serve-warm: hit ratio %v, want 1", v)
	}
	if v := get("serve-cold", "serve.tile_decodes_per_req"); v < 1 {
		t.Errorf("serve-cold: %v tile decodes per request, want >= 1", v)
	}
	if v := get("serve-zipf", "serve.cache.hit_ratio"); v <= 0 || v >= 1 {
		t.Errorf("serve-zipf: hit ratio %v, want strictly between 0 and 1", v)
	}
}
