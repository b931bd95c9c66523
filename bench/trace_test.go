package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// timedUnits are the units of per-layer metrics that measure time.
var timedUnits = map[string]bool{"ms": true, "us": true, "ns": true, "ms/Mpix": true, "ms/MB": true, "MB/s": true}

// spansOf names, for every per-layer metric that measures time, the spans it
// is derived from. The test below fails when a timed metric is added without
// saying here which spans carry it, and when a traced run lacks those spans.
var spansOf = map[string][]string{
	"raster.pnm_write_ms":          {"raster.pnm_write"},
	"mct.fwd_ms_per_mpix":          {"mct.fwd"},
	"mct.inv_ms_per_mpix":          {"mct.inv"},
	"dwt.fwd53_ms_per_mpix":        {"dwt.fwd53"},
	"dwt.fwd97_ms_per_mpix":        {"dwt.fwd97"},
	"dwt.inv53_ms_per_mpix":        {"dwt.inv53"},
	"dwt.inv97_ms_per_mpix":        {"dwt.inv97"},
	"quant.fwd_ms_per_mpix":        {"quant.fwd"},
	"quant.inv_ms_per_mpix":        {"quant.inv"},
	"t1.enc_us_per_block":          {"t1.enc"},
	"t1.enc_us_per_block.bypass":   {"t1.enc.bypass"},
	"t1.dec_us_per_block":          {"t1.dec"},
	"mq.enc_ns_per_symbol":         {"mq.enc"},
	"mq.dec_ns_per_symbol":         {"mq.dec"},
	"rate.alloc_ms":                {"rate.alloc"},
	"t2.scan_ms":                   {"t2.scan"},
	"t2.ingest_ms":                 {"t2.ingest"},
	"t2.index_tile_us":             {"t2.index_tile"},
	"t2.prefix_ms_per_mb":          {"t2.prefix"},
	"t2.pkt_enc_ms":                {"enc.t2"},
	"t2.pkt_dec_ms":                {"dec.t2"},
	"jp2k.tile_decode_ms":          {"jp2k.tile_decode"},
	"jp2k.tile_decode_ms.reduce2":  {"jp2k.tile_decode"},
	"core.dispatch_us":             {"core.dispatch"},
	"serve.cache.hit_ns":           {"serve.cache.hit"},
	"serve.cache.miss_overhead_us": {"serve.cache.miss"},
	"serve.self_ms":                {"http.region", "jp2k.tile_decode", "raster.pnm_write"},
	"serve.resp_mb_per_s":          {"http.region"},
	"serve.info_us":                {"http.info"},
	"serve.stream_ms":              {"http.stream"},
}

// Timed metrics read from public counters rather than spans: the decode
// stage histograms behind /stats, and the harness's own measurements of
// itself.
var notFromSpans = map[string]bool{
	"serve.dec_stage_ms.parse": true, "serve.dec_stage_ms.t2": true,
	"serve.dec_stage_ms.t1": true, "serve.dec_stage_ms.idwt": true,
	"bench.gen_late_p95_ms": true, "bench.op_p99_ms": true, "op_p95_ms": true,
}

func TestTraceWellFormed(t *testing.T) {
	for _, w := range workloadDefs {
		run := runSmoke(t, w.Name, 1, true, 0)
		spans := run.trace.Spans
		if len(spans) == 0 {
			t.Fatalf("%s: empty trace", w.Name)
		}
		have := map[string]bool{}
		for i, s := range spans {
			have[s.Name] = true
			if s.ID != i {
				t.Fatalf("%s: span %d has id %d", w.Name, i, s.ID)
			}
			if s.End < s.Start {
				t.Errorf("%s: span %d %s ends before it starts", w.Name, i, s.Name)
			}
			if s.Source != srcTimed && s.Source != srcReported {
				t.Errorf("%s: span %d %s has source %q", w.Name, i, s.Name, s.Source)
			}
			if s.Parent == -1 {
				continue
			}
			if s.Parent < 0 || s.Parent >= len(spans) {
				t.Fatalf("%s: span %d %s has no parent %d", w.Name, i, s.Name, s.Parent)
			}
			p := spans[s.Parent]
			if p.Op != s.Op {
				t.Errorf("%s: span %d %s is of op %d, its parent of op %d", w.Name, i, s.Name, s.Op, p.Op)
			}
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %d %s [%d,%d] leaves its parent %s [%d,%d]", w.Name, i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
		if len(run.trace.SelfNS) != len(spans) {
			t.Fatalf("%s: %d self times for %d spans", w.Name, len(run.trace.SelfNS), len(spans))
		}
		for i, self := range run.trace.SelfNS {
			if self < 0 || self > spans[i].End-spans[i].Start {
				t.Errorf("%s: span %d %s has self time %d of %d", w.Name, i, spans[i].Name, self, spans[i].End-spans[i].Start)
			}
		}
		for _, d := range perLayer {
			if !timedUnits[d.Unit] || notFromSpans[d.Name] {
				continue
			}
			names, ok := spansOf[d.Name]
			if !ok {
				t.Errorf("timed metric %s is not mapped to the spans it is derived from", d.Name)
			}
			for _, n := range names {
				if !have[n] {
					t.Errorf("%s: no %s span behind %s", w.Name, n, d.Name)
				}
			}
			if v := run.res.Metrics[d.Name]; v.Value <= 0 {
				t.Errorf("%s: %s = %v, a timed metric must be measured on every workload", w.Name, d.Name, v.Value)
			}
		}
		if v := run.res.Metrics["bench.trace_overhead_ratio"].Value; v <= 0 {
			t.Errorf("%s: bench.trace_overhead_ratio = %v", w.Name, v)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// A parent [0,100] with children [10,30], [20,50] (overlapping) and
	// [70,80]: 50 covered, 50 self.
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 70, End: 80},
		{ID: 2, Parent: 0, Start: 10, End: 30},
		{ID: 3, Parent: 0, Start: 20, End: 50},
		{ID: 4, Parent: 3, Start: 20, End: 50},
	}
	self := selfTimes(spans)
	for i, want := range []int64{50, 10, 20, 0, 30} {
		if self[i] != want {
			t.Errorf("span %d: self %d, want %d", i, self[i], want)
		}
	}
}

func TestReportedSpansStayInsideParent(t *testing.T) {
	tr := newTracer()
	op := tr.newOp()
	id := tr.begin(-1, op, "call")
	tr.end(id, nil)
	tr.annotate(id, func(s *span) { s.Start, s.End = 1000, 2000 })
	tr.reported(id, op, []string{"a", "b", "c"}, []time.Duration{400, 500, 300})
	got := tr.spans[1:]
	if got[0].Start != 1000 || got[0].End != 1400 || got[1].End != 1900 || got[2].Start != 1900 || got[2].End != 2000 {
		t.Errorf("reported spans %+v", got)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, mpix, blocks float64) string {
		path := filepath.Join(dir, name)
		err := writeResults(path, []*result{
			{Workload: "encode-batch", Metrics: map[string]value{"mpix_per_s": {Value: mpix, Unit: "Mpix/s"}}},
			{Workload: "encode-batch", Trace: true, Metrics: map[string]value{"t1.enc_blocks": {Value: blocks, Unit: "count"}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 10, 282)
	if code := compareFiles(a, write("same.json", 9.5, 282)); code != 0 {
		t.Errorf("a 5%% gap within a %v bound exits %d", endToEnd[1].Bound, code)
	}
	if code := compareFiles(a, write("worse.json", 6, 283)); code != 1 {
		t.Errorf("a 40%% gap beyond the bound exits %d", code)
	}
	if code := compareFiles(a, write("better.json", 14, 282)); code != 0 {
		t.Errorf("an improvement exits %d", code)
	}
	if code := compareFiles(a, filepath.Join(dir, "missing.json")); code != 2 {
		t.Errorf("a missing file exits %d", code)
	}
	os.Remove(a)
}
