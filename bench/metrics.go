package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric the benchmark emits. BENCHMARK.json at the
// root of the repository is generated from these tables (-manifest) and the
// smoke test asserts that the file, the tables and the emitted names agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// runSeconds is how long one driver run measures (BENCHMARK.json run_seconds).
const runSeconds = 10

// endToEnd lists what a user of the codec or the tile server sees. Every
// workload emits every one of them (see README.md for the per-workload
// definitions).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"mpix_per_s", "Mpix/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"allocs_per_op", "allocs", "lower", 0.10},
}

// perLayer lists the single-layer metrics of the traced run, grouped by the
// module (layer) they measure. They carry no bound.
var perLayer = []metricDef{
	{"raster.pnm_write_ms", "ms", "lower", 0},

	{"mct.fwd_ms_per_mpix", "ms/Mpix", "lower", 0},
	{"mct.inv_ms_per_mpix", "ms/Mpix", "lower", 0},

	{"dwt.fwd53_ms_per_mpix", "ms/Mpix", "lower", 0},
	{"dwt.fwd97_ms_per_mpix", "ms/Mpix", "lower", 0},
	{"dwt.inv53_ms_per_mpix", "ms/Mpix", "lower", 0},
	{"dwt.inv97_ms_per_mpix", "ms/Mpix", "lower", 0},
	{"dwt.vert_share", "ratio", "lower", 0},
	{"dwt.naive_over_blocked", "ratio", "higher", 0},

	{"quant.fwd_ms_per_mpix", "ms/Mpix", "lower", 0},
	{"quant.inv_ms_per_mpix", "ms/Mpix", "lower", 0},

	{"t1.enc_us_per_block", "us", "lower", 0},
	{"t1.enc_us_per_block.bypass", "us", "lower", 0},
	{"t1.dec_us_per_block", "us", "lower", 0},
	{"t1.enc_blocks", "count", "lower", 0},
	{"t1.enc_passes", "count", "lower", 0},
	{"t1.enc_bytes", "B", "lower", 0},
	{"t1.dec_blocks", "count", "lower", 0},

	{"mq.enc_ns_per_symbol", "ns", "lower", 0},
	{"mq.dec_ns_per_symbol", "ns", "lower", 0},

	{"rate.alloc_ms", "ms", "lower", 0},
	{"rate.blocks", "count", "lower", 0},

	{"t2.scan_ms", "ms", "lower", 0},
	{"t2.scan_reads", "count", "lower", 0},
	{"t2.scan_bytes", "B", "lower", 0},
	{"t2.ingest_ms", "ms", "lower", 0},
	{"t2.index_tile_us", "us", "lower", 0},
	{"t2.prefix_ms_per_mb", "ms/MB", "lower", 0},
	{"t2.src_reads_per_tile", "count", "lower", 0},
	{"t2.src_bytes_per_tile", "B", "lower", 0},
	{"t2.src_bytes_per_tile.reduce2", "B", "lower", 0},
	{"t2.pkt_enc_ms", "ms", "lower", 0},
	{"t2.pkt_dec_ms", "ms", "lower", 0},

	{"jp2k.enc_stage_share.setup", "ratio", "lower", 0},
	{"jp2k.enc_stage_share.intercomp", "ratio", "lower", 0},
	{"jp2k.enc_stage_share.dwt", "ratio", "lower", 0},
	{"jp2k.enc_stage_share.quant", "ratio", "lower", 0},
	{"jp2k.enc_stage_share.t1", "ratio", "lower", 0},
	{"jp2k.enc_stage_share.rate", "ratio", "lower", 0},
	{"jp2k.enc_stage_share.t2", "ratio", "lower", 0},
	{"jp2k.enc_stage_share.io", "ratio", "lower", 0},
	{"jp2k.dec_stage_share.parse", "ratio", "lower", 0},
	{"jp2k.dec_stage_share.t2", "ratio", "lower", 0},
	{"jp2k.dec_stage_share.t1", "ratio", "lower", 0},
	{"jp2k.dec_stage_share.idwt", "ratio", "lower", 0},
	{"jp2k.dec_stage_share.intercomp", "ratio", "lower", 0},
	{"jp2k.serial_fraction_enc", "ratio", "lower", 0},
	{"jp2k.serial_fraction_dec", "ratio", "lower", 0},
	{"jp2k.amdahl_speedup_pred", "ratio", "higher", 0},
	{"jp2k.span_coverage_enc", "ratio", "higher", 0},
	{"jp2k.span_coverage_dec", "ratio", "higher", 0},
	{"jp2k.w1_mpix_per_s", "Mpix/s", "higher", 0},
	{"jp2k.tile_decode_ms", "ms", "lower", 0},
	{"jp2k.tile_decode_ms.reduce2", "ms", "lower", 0},

	{"core.dispatch_us", "us", "lower", 0},
	{"core.dispatches_per_op", "count", "lower", 0},
	{"core.wait_share", "ratio", "lower", 0},

	{"serve.cache.hit_ns", "ns", "lower", 0},
	{"serve.cache.miss_overhead_us", "us", "lower", 0},
	{"serve.cache.hit_ratio", "ratio", "higher", 0},
	{"serve.cache.evictions", "count", "lower", 0},
	{"serve.cache.coalesced", "count", "higher", 0},
	{"serve.cache.bytes_per_tile", "B", "lower", 0},
	{"serve.tile_decodes_per_req", "count", "lower", 0},
	{"serve.io_reads_per_req", "count", "lower", 0},
	{"serve.dec_stage_ms.parse", "ms", "lower", 0},
	{"serve.dec_stage_ms.t2", "ms", "lower", 0},
	{"serve.dec_stage_ms.t1", "ms", "lower", 0},
	{"serve.dec_stage_ms.idwt", "ms", "lower", 0},
	{"serve.self_ms", "ms", "lower", 0},
	{"serve.resp_mb_per_s", "MB/s", "higher", 0},
	{"serve.pool_wait_share", "ratio", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.errors", "count", "lower", 0},
	{"serve.info_us", "us", "lower", 0},
	{"serve.stream_ms", "ms", "lower", 0},

	{"bench.gen_late_p95_ms", "ms", "lower", 0},
	{"bench.op_p99_ms", "ms", "lower", 0},
	{"bench.heap_peak_mb", "MB", "lower", 0},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},

	// End-to-end quantities that cannot be end-to-end metrics under the
	// driver's contract, reported here from the traced run's untraced pass:
	// op_p95_ms, whose spread between runs of one commit is wider than any
	// bound the contract admits (see README.md), and the ones that do not
	// apply to every workload, or are exactly zero, or exact counts.
	{"op_p95_ms", "ms", "lower", 0},
	{"speedup_vs_w1", "ratio", "higher", 0},
	{"slo_miss_ratio", "ratio", "lower", 0},
	{"fail_ratio", "ratio", "lower", 0},
	{"out_bytes", "B", "lower", 0},
	{"psnr_db", "dB", "higher", 0},
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"encode-batch", "closed loop, one pooled encoder at Workers=1 then P: tier-1 dominates, forward DWT second, rate/tier-2/IO are the serial tail that caps the speedup (the paper's experiment)"},
	{"decode-batch", "closed loop, one pooled decoder: the read side of the same t1/dwt/t2/mct layers, plus reduced-resolution and fewer-layer decodes, so an encode gain that costs decode shows"},
	{"serve-cold", "P clients, cache off, every tile a miss: per-miss work outside tier-1 (codestream scan, whole-tile body reads, tile-at-a-time loop); the cache is bypassed"},
	{"serve-warm", "P clients panning large viewports over pre-warmed tiles, all hits: the codec does nothing, cache lookup, stitch, clamp, PNM encode and HTTP write do everything"},
	{"serve-zipf", "open loop at a fixed Poisson rate, Zipf tile popularity, cache smaller than the working set, scans and /stream mixed in: hits, misses, eviction and queueing together"},
}

// value is one measured metric: the number as measured, its unit, and how
// many samples stand behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects the metrics of one run against one of the tables above:
// set refuses names the table does not declare, missing reports the names
// not yet set, so a run can neither invent nor drop a metric silently.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]value
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: make(map[string]metricDef, len(defs)), vals: make(map[string]value, len(defs))}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

func (m *metricSet) set(name string, v float64, n int) {
	d, ok := m.defs[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("bench: metric %s is not finite (%v)", name, v))
	}
	m.vals[name] = value{Value: v, Unit: d.Unit, N: n}
}

func (m *metricSet) missing() []string {
	var out []string
	for name := range m.defs {
		if _, ok := m.vals[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// manifest renders BENCHMARK.json from the tables.
func manifest() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}
