package main

import (
	"pj2k/internal/amdahl"
	"pj2k/internal/jp2k"
)

// layerInputs is everything the per-layer metrics are derived from besides
// the trace: the untraced passes of the traced run (the workload's own, and
// the probes that stand in where the workload has no operation of a kind)
// and the counters read at their boundaries.
type layerInputs struct {
	P             int
	g             geometry
	decodePrimary bool // the Amdahl prediction is for the decode pipeline

	enc, dec         *batchPhase // untraced encode and decode cycles
	encPSNR, decPSNR float64
	srv              *servePhase // untraced request pass the cache counters come from
	seq              *servePhase // one-connection pass over the request list: per-request counts that repeat exactly
	stages           statsDelta  // decode-stage histograms over every tile decode of the run

	primaryOpMs   []float64 // op times of the workload's own untraced pass
	primaryLateMs []float64
	heapPeak      uint64
	overhead      float64 // traced over untraced median op time, same load shape
	sloMiss       float64
	attempted     int
	failed        int
}

// Stages of the codec that run on all workers, by the reported stage name;
// the rest is the serial tail of the paper's Amdahl analysis.
var (
	encParallel = map[string]bool{"intercomp": true, "dwt": true, "quant": true, "t1": true}
	decParallel = map[string]bool{"t1": true, "idwt": true, "intercomp": true}
)

// deriveLayers computes every per-layer metric. Timed metrics come from
// spans only; counts come from the span that bracketed the work or from the
// public counters read around an untraced pass.
func deriveLayers(tr *tracer, in *layerInputs) *metricSet {
	ms := newMetricSet(perLayer)
	sumOf := func(name string) totals { return total(tr.sel(name, nil)) }
	perMpix := func(metric, name string) {
		t := sumOf(name)
		ms.set(metric, ratio(t.ms, t.mpix), t.n)
	}
	perCount := func(metric, name string, scale float64) {
		t := sumOf(name)
		ms.set(metric, ratio(t.ms*scale, float64(t.count)), t.n)
	}
	mean := func(metric, name string, scale float64) {
		t := sumOf(name)
		ms.set(metric, ratio(t.ms*scale, float64(t.n)), t.n)
	}

	// raster: the response encoding of a full 8T x 6T gray viewport.
	viewport := int64(8 * in.g.T * 6 * in.g.T)
	pnm := total(tr.sel("raster.pnm_write", func(s *span) bool { return s.Bytes == viewport }))
	ms.set("raster.pnm_write_ms", ratio(pnm.ms, float64(pnm.n)), pnm.n)

	perMpix("mct.fwd_ms_per_mpix", "mct.fwd")
	perMpix("mct.inv_ms_per_mpix", "mct.inv")

	perMpix("dwt.fwd53_ms_per_mpix", "dwt.fwd53")
	perMpix("dwt.fwd97_ms_per_mpix", "dwt.fwd97")
	perMpix("dwt.inv53_ms_per_mpix", "dwt.inv53")
	perMpix("dwt.inv97_ms_per_mpix", "dwt.inv97")
	var vert, horiz int64
	fwd := append(tr.sel("dwt.fwd53", nil), tr.sel("dwt.fwd97", nil)...)
	for _, s := range fwd {
		vert, horiz = vert+s.VertNS, horiz+s.HorizNS
	}
	ms.set("dwt.vert_share", ratio(float64(vert), float64(vert+horiz)), len(fwd))
	naive, blocked := tr.sel("dwt.vert.naive", nil), tr.sel("dwt.vert.blocked", nil)
	var nv, bv int64
	for _, s := range naive {
		nv += s.VertNS
	}
	for _, s := range blocked {
		bv += s.VertNS
	}
	ms.set("dwt.naive_over_blocked", ratio(float64(nv), float64(bv)), len(naive))

	perMpix("quant.fwd_ms_per_mpix", "quant.fwd")
	perMpix("quant.inv_ms_per_mpix", "quant.inv")

	// t1: times per block; counts per operation, which repeat exactly
	// because every traced cycle holds the same operations.
	perCount("t1.enc_us_per_block", "t1.enc", 1e3)
	perCount("t1.enc_us_per_block.bypass", "t1.enc.bypass", 1e3)
	perCount("t1.dec_us_per_block", "t1.dec", 1e3)
	t1e, t1b, t1d := sumOf("t1.enc"), sumOf("t1.enc.bypass"), sumOf("t1.dec")
	encOps := float64(t1e.n + t1b.n)
	ms.set("t1.enc_blocks", ratio(float64(t1e.count+t1b.count), encOps), int(encOps))
	ms.set("t1.enc_passes", ratio(float64(t1e.passes+t1b.passes), encOps), int(encOps))
	ms.set("t1.enc_bytes", ratio(float64(t1e.bytes+t1b.bytes), encOps), int(encOps))
	ms.set("t1.dec_blocks", ratio(float64(t1d.count), float64(t1d.n)), t1d.n)

	perCount("mq.enc_ns_per_symbol", "mq.enc", 1e6)
	perCount("mq.dec_ns_per_symbol", "mq.dec", 1e6)

	mean("rate.alloc_ms", "rate.alloc", 1)
	ra := sumOf("rate.alloc")
	ms.set("rate.blocks", ratio(float64(ra.count), float64(ra.n)), ra.n)

	// t2: the scan metrics are those of the scan through the counting
	// reader (the replays scan resident bytes and issue no reads).
	scan := total(tr.sel("t2.scan", func(s *span) bool { return s.Reads > 0 }))
	ms.set("t2.scan_ms", ratio(scan.ms, float64(scan.n)), scan.n)
	ms.set("t2.scan_reads", ratio(float64(scan.reads), float64(scan.n)), scan.n)
	ms.set("t2.scan_bytes", ratio(float64(scan.bytes), float64(scan.n)), scan.n)
	mean("t2.ingest_ms", "t2.ingest", 1)
	perCount("t2.index_tile_us", "t2.index_tile", 1e3)
	pre := sumOf("t2.prefix")
	ms.set("t2.prefix_ms_per_mb", ratio(pre.ms, float64(pre.bytes)/1e6), pre.n)
	full := total(tr.sel("jp2k.tile_decode", func(s *span) bool { return s.Reduce == 0 }))
	red2 := total(tr.sel("jp2k.tile_decode", func(s *span) bool { return s.Reduce == 2 }))
	ms.set("t2.src_reads_per_tile", ratio(float64(full.reads), float64(full.n)), full.n)
	ms.set("t2.src_bytes_per_tile", ratio(float64(full.bytes), float64(full.n)), full.n)
	ms.set("t2.src_bytes_per_tile.reduce2", ratio(float64(red2.bytes), float64(red2.n)), red2.n)
	mean("t2.pkt_enc_ms", "enc.t2", 1)
	mean("t2.pkt_dec_ms", "dec.t2", 1)

	// jp2k: the paper's Fig. 3 from the stage timings the codec reports at
	// Workers=1, the serial fraction, and Amdahl's prediction at P.
	share := func(prefix string, names []string, parallel map[string]bool) (serial, par float64) {
		all := 0.0
		for _, n := range names {
			all += sumOf(prefix + "." + n).ms
		}
		for _, n := range names {
			t := sumOf(prefix + "." + n)
			ms.set("jp2k."+prefix+"_stage_share."+n, ratio(t.ms, all), t.n)
			if parallel[n] {
				par += t.ms
			} else {
				serial += t.ms
			}
		}
		return serial, par
	}
	es, ep := share("enc", jp2k.EncStageNames[:], encParallel)
	ds, dp := share("dec", jp2k.DecStageNames[:], decParallel)
	ms.set("jp2k.serial_fraction_enc", ratio(es, es+ep), 0)
	ms.set("jp2k.serial_fraction_dec", ratio(ds, ds+dp), 0)
	prof := amdahl.Profile{Sequential: es, Parallel: ep}
	if in.decodePrimary {
		prof = amdahl.Profile{Sequential: ds, Parallel: dp}
	}
	ms.set("jp2k.amdahl_speedup_pred", prof.Speedup(in.P), 0)
	w1 := func(s *span) bool { return s.Workers == 1 }
	encCalls, decCalls := total(tr.sel("jp2k.EncodePlanar", w1)), total(tr.sel("jp2k.DecodePlanarSource", w1))
	ms.set("jp2k.span_coverage_enc", ratio(es+ep, encCalls.ms), encCalls.n)
	ms.set("jp2k.span_coverage_dec", ratio(ds+dp, decCalls.ms), decCalls.n)
	primary := in.enc
	if in.decodePrimary {
		primary = in.dec
	}
	ms.set("jp2k.w1_mpix_per_s", primary.pixels/1e6/(median(primary.walls(1))/1e3), len(primary.walls(1)))
	ms.set("jp2k.tile_decode_ms", ratio(full.ms, float64(full.n)), full.n)
	ms.set("jp2k.tile_decode_ms.reduce2", ratio(red2.ms, float64(red2.n)), red2.n)

	perCount("core.dispatch_us", "core.dispatch", 1e3)
	ms.set("core.dispatches_per_op", ratio(float64(primary.poolDisp), float64(primary.opsAtP)), primary.opsAtP)
	ms.set("core.wait_share", ratio(float64(primary.poolWait), float64(primary.wallAtP.Nanoseconds())), primary.opsAtP)

	// serve
	perCount("serve.cache.hit_ns", "serve.cache.hit", 1e6)
	perCount("serve.cache.miss_overhead_us", "serve.cache.miss", 1e3)
	st := in.srv.stats
	lookups := st.Hits + st.Misses + st.Coalesced
	ms.set("serve.cache.hit_ratio", ratio(float64(st.Hits), float64(lookups)), int(lookups))
	ms.set("serve.cache.evictions", float64(st.Evictions), 0)
	ms.set("serve.cache.coalesced", float64(st.Coalesced), 0)
	ms.set("serve.cache.bytes_per_tile", ratio(float64(st.CacheBytes), float64(st.CacheEntries)), st.CacheEntries)
	regions := 0
	for i := range in.seq.recs {
		if in.seq.recs[i].req.kind == kindRegion {
			regions++
		}
	}
	ms.set("serve.tile_decodes_per_req", ratio(float64(in.seq.stats.TileDecodes), float64(regions)), regions)
	ms.set("serve.io_reads_per_req", ratio(float64(in.seq.stats.IOReads), float64(len(in.seq.recs))), len(in.seq.recs))
	for _, n := range []string{"parse", "t2", "t1", "idwt"} {
		ms.set("serve.dec_stage_ms."+n, ratio(in.stages.StageMS[n], float64(in.stages.StageCount[n])), int(in.stages.StageCount[n]))
	}
	// Self time of a region request: the round trip minus what the replay of
	// its missed tiles and of its response encoding took — query parsing,
	// cache lookups, stitching, clamping, HTTP.
	selfMs, nself := 0.0, 0
	var respBytes int64
	var respMs float64
	replays := map[int]float64{} // op -> replayed decode + encode time
	for _, name := range []string{"jp2k.tile_decode", "raster.pnm_write"} {
		for _, s := range tr.sel(name, nil) {
			replays[s.Op] += s.ms()
		}
	}
	for _, s := range tr.sel("http.region", nil) {
		selfMs += max(s.ms()-replays[s.Op], 0)
		nself++
		respBytes += s.Bytes
		respMs += s.ms()
	}
	ms.set("serve.self_ms", ratio(selfMs, float64(nself)), nself)
	ms.set("serve.resp_mb_per_s", ratio(float64(respBytes)/1e6, respMs/1e3), nself)
	ms.set("serve.pool_wait_share", ratio(st.PoolWaitMS, float64(in.srv.wall.Milliseconds())), 0)
	ms.set("serve.shed", float64(st.Shed), 0)
	ms.set("serve.errors", float64(st.Errors), 0)
	mean("serve.info_us", "http.info", 1e3)
	mean("serve.stream_ms", "http.stream", 1)

	// bench: the harness itself.
	ms.set("bench.gen_late_p95_ms", percentile(in.primaryLateMs, 0.95), len(in.primaryLateMs))
	ms.set("bench.op_p99_ms", percentile(in.primaryOpMs, 0.99), len(in.primaryOpMs))
	ms.set("bench.heap_peak_mb", float64(in.heapPeak)/1e6, 0)
	ms.set("bench.trace_overhead_ratio", in.overhead, 0)

	ms.set("op_p95_ms", percentile(in.primaryOpMs, 0.95), len(in.primaryOpMs))
	ms.set("speedup_vs_w1", ratio(median(primary.walls(1)), median(primary.walls(in.P))), len(primary.walls(in.P)))
	ms.set("slo_miss_ratio", in.sloMiss, len(in.primaryOpMs))
	ms.set("fail_ratio", ratio(float64(in.failed), float64(in.attempted)), in.attempted)
	ms.set("out_bytes", float64(in.enc.outBytes), 0)
	psnr := in.encPSNR
	if in.decodePrimary {
		psnr = in.decPSNR
	}
	ms.set("psnr_db", psnr, 0)
	return ms
}
