package main

import (
	"fmt"
	"path/filepath"
	"time"

	"pj2k/internal/raster"
)

// config is one run's arguments, resolved.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	outDir  string
	P       int // min(nproc, 4): GOMAXPROCS, codec Workers, clients
	g       geometry
	// cycleScale shrinks the request lists of the closed-loop serve
	// workloads (smoke test only).
	cycleScale float64
}

// Load constants of the serve workloads. The cycle lengths make one cycle
// about a second on the host the benchmark was defined on. The rate, latency
// limit and cache budget of serve-zipf were calibrated once on the commit
// that added the benchmark (see README.md) and are frozen: a later change is
// measured against the same offered load.
const (
	coldCycleLen   = 200
	warmCycleLen   = 400
	zipfRate       = 150.0 // requests per second offered
	zipfLimitMs    = 20.0  // latency limit L
	zipfCacheBytes = 14 << 20
	setupRepeats   = 3
	warmupShare    = 0.05
)

// result is what one workload run reports.
type result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	OpsHash   string           `json:"ops_hash"`
	Metrics   map[string]value `json:"metrics"`
	Failures  []string         `json:"failures,omitempty"`
}

// runWorkload runs one workload, untraced (end-to-end metrics) or traced
// (per-layer metrics).
func runWorkload(name string, cfg config) (*result, error) {
	r := &runner{cfg: cfg, name: name, fails: &failures{}}
	var ms *metricSet
	var err error
	switch name {
	case "encode-batch":
		ms, err = r.batch(false)
	case "decode-batch":
		ms, err = r.batch(true)
	case "serve-cold", "serve-warm", "serve-zipf":
		ms, err = r.serve()
	default:
		return nil, fmt.Errorf("bench: unknown workload %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", name, err)
	}
	if miss := ms.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("bench: %s did not produce %v", name, miss)
	}
	return &result{
		Workload: name, Seed: cfg.seed, Trace: cfg.trace,
		Correct: r.fails.n == 0, Attempted: r.attempted, Failed: r.failedOps(),
		OpsHash: fmt.Sprintf("%016x", r.opsHash), Metrics: ms.vals, Failures: r.fails.msgs,
	}, nil
}

// runner carries one workload run.
type runner struct {
	cfg       config
	name      string
	fails     *failures
	attempted int
	failed    int
	opsHash   uint64
}

// failedOps is the number of operations that failed. A correctness failure
// outside any one operation (an oracle or probe that could not run) still
// counts as one.
func (r *runner) failedOps() int { return max(r.failed, min(r.fails.n, r.attempted)) }

// repeatSetup sets up setupRepeats times, tearing down all but the last, and
// returns the median set-up time: one set-up is too few samples for a metric
// later changes are gated on.
func repeatSetup[T interface{ close() }](setup func(last bool) (T, error)) (T, float64, error) {
	var times []float64
	var last T
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		v, err := setup(i == setupRepeats-1)
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			v.close()
		}
		last = v
	}
	return last, median(times), nil
}

// --- batch workloads

// batchRun is a set-up batch workload.
type batchRun struct {
	*batchDriver
	own *codec // closed with the run, when the run created it
}

func (b *batchRun) close() {
	if b.own != nil {
		b.own.close()
	}
}

// batchSetup synthesizes the corpus (and, for decoding, encodes it), then
// runs one untimed cycle at Workers=P. The set-up that is kept runs on
// primary, the codec created at the start of the process (see codec); the
// ones that are only timed create and prime their own, so that set-up time
// covers creating a codec too.
func (r *runner) batchSetup(decode bool, primary *codec) func(last bool) (*batchRun, error) {
	return func(last bool) (*batchRun, error) {
		run := &batchRun{}
		c := primary
		if !last {
			var err error
			if c, err = newCodec(r.cfg.P); err != nil {
				return nil, err
			}
			run.own = c
		}
		items := batchItems(r.cfg.seed, r.cfg.g)
		ops := encodeOps(items)
		if decode {
			ops = decodeOps(items, 1)
		}
		run.batchDriver = newBatchDriver(c, items, ops, r.fails)
		if decode {
			if err := run.encodeAll(); err != nil {
				run.close()
				return nil, err
			}
		}
		run.warm()
		return run, nil
	}
}

func (r *runner) batch(decode bool) (*metricSet, error) {
	primary, err := newCodec(r.cfg.P)
	if err != nil {
		return nil, err
	}
	defer primary.close()
	if r.cfg.trace {
		return r.batchTraced(decode, primary)
	}
	d, setupS, err := repeatSetup(r.batchSetup(decode, primary))
	if err != nil {
		return nil, err
	}
	r.opsHash = hashItems(d.items)
	ph := d.measure(r.cfg.seconds)
	if !decode {
		d.verifyEncodes()
	}
	r.attempted, r.failed = ph.ops, min(r.fails.n, ph.ops)
	ms := newMetricSet(endToEnd)
	ms.set("setup_s", setupS, setupRepeats)
	batchEndToEnd(ms, ph, r.cfg.P)
	return ms, nil
}

// batchEndToEnd fills the end-to-end metrics of a batch phase. A cycle of a
// batch workload holds a handful of different operations, not a stream of
// like requests, so a median over operations means little: op_p50_ms is the
// mean operation time of the median Workers=1 cycle (the serial latency).
func batchEndToEnd(ms *metricSet, ph *batchPhase, P int) {
	wp, w1 := ph.walls(P), ph.walls(1)
	ms.set("mpix_per_s", ph.pixels/1e6/(median(wp)/1e3), len(wp))
	ms.set("op_p50_ms", median(w1)/float64(ph.opsPerCyc), len(w1))
	ms.set("allocs_per_op", float64(ph.mallocs)/float64(ph.ops), ph.ops)
}

func (r *runner) batchTraced(decode bool, primary *codec) (*metricSet, error) {
	cfg := r.cfg
	d, err := r.batchSetup(decode, primary)(true)
	if err != nil {
		return nil, err
	}
	r.opsHash = hashItems(d.items)
	in := &layerInputs{P: cfg.P, g: cfg.g, decodePrimary: decode}
	untr := d.measure(0.3 * cfg.seconds)
	tr := newTracer()
	rep := newReplayer(tr)
	defer rep.close()
	d.rep = rep
	traced := d.measure(0.4 * cfg.seconds)
	d.rep = nil
	r.attempted = untr.ops + traced.ops
	in.primaryOpMs, in.primaryLateMs = untr.opsAt(cfg.P), untr.lates()
	in.heapPeak = max(untr.heapPeak, traced.heapPeak)
	in.overhead = ratio(median(traced.opsAt(cfg.P)), median(untr.opsAt(cfg.P)))

	// The other direction, as a probe on the same items.
	otherOps := encodeOps(d.items)
	if !decode {
		otherOps = decodeOps(d.items, 1)
	}
	other := newBatchDriver(primary, d.items, otherOps, r.fails)
	otherUntr := other.runAsProbe(rep, 0)
	if decode {
		in.enc, in.dec = otherUntr, untr
		in.encPSNR, in.decPSNR = other.verifyEncodes(), d.meanLossyPSNR()
	} else {
		in.enc, in.dec = untr, otherUntr
		in.encPSNR, in.decPSNR = d.verifyEncodes(), other.meanLossyPSNR()
	}

	// The serving layers, as a probe server over the tiled and the colour item.
	env, err := setupServe([]*item{d.items[1], d.items[3]}, cfg.P, -1, cfg.outDir, r.fails)
	if err != nil {
		return nil, err
	}
	defer env.close()
	probes, err := r.serveProbes(tr, rep, env)
	if err != nil {
		return nil, err
	}
	in.srv, in.seq, in.stages = probes, probes, probes.stats
	shift := d.items[0].pl.Comps[0].Clone()
	if err := r.microProbes(tr, rep, d.items[1].cs, shift); err != nil {
		return nil, err
	}
	return r.finishTrace(tr, in)
}

// --- serve workloads

// serveRun is a set-up serve workload: the server and the request list.
type serveRun struct {
	env  *serveEnv
	reqs []request
	due  []float64 // serve-zipf: arrival schedule
}

func (s *serveRun) close() { s.env.close() }

// serveSetup builds the corpus, starts the server and warms it: the first
// twentieth of the request list for every workload (connections, pooled
// decoders), preceded on serve-warm by the fetch of every tile a viewport
// can touch.
func (r *runner) serveSetup(horizon float64) func(last bool) (*serveRun, error) {
	cfg := r.cfg
	return func(bool) (*serveRun, error) {
		items := serveItems(cfg.seed, cfg.g)
		if err := encodeItems(cfg.P, items); err != nil {
			return nil, err
		}
		cache := int64(0) // the server's default
		switch r.name {
		case "serve-cold":
			cache = -1
		case "serve-zipf":
			cache = zipfCacheBytes * int64(cfg.g.T*cfg.g.T) / int64(fullGeometry.T*fullGeometry.T)
		}
		env, err := setupServe(items, cfg.P, cache, cfg.outDir, r.fails)
		if err != nil {
			return nil, err
		}
		s := &serveRun{env: env}
		rng := newRand(cfg.seed, r.name)
		scaled := func(n int) int { return max(int(float64(n)*cfg.cycleScale), 20) }
		var pre []respRec
		switch r.name {
		case "serve-cold":
			s.reqs = coldRequests(rng, cfg.g, scaled(coldCycleLen))
		case "serve-warm":
			s.reqs = warmRequests(rng, cfg.g, scaled(warmCycleLen))
			env.runCycle(warmArea(cfg.g), &pre)
		case "serve-zipf":
			s.due = poissonSchedule(newRand(cfg.seed, "arrivals"), zipfRate, horizon)
			if len(s.due) == 0 {
				env.close()
				return nil, fmt.Errorf("no arrival within %.3fs at %.0f/s", horizon, zipfRate)
			}
			s.reqs = zipfRequests(rng, cfg.g, len(s.due))
		}
		env.runCycle(s.reqs[:max(int(warmupShare*float64(len(s.reqs))), 1)], &pre)
		for i := range pre {
			if pre[i].failed || pre[i].status != 200 {
				env.close()
				return nil, fmt.Errorf("warm-up request %s: status %d", pre[i].req.path, pre[i].status)
			}
		}
		return s, nil
	}
}

// measure runs the workload's timed phase in its own load shape.
func (r *runner) measureServe(s *serveRun, seconds float64) (*servePhase, error) {
	if r.name == "serve-zipf" {
		n := 0
		for n < len(s.due) && s.due[n] < seconds {
			n++
		}
		return s.env.measureOpen(s.reqs[:n], s.due[:n], zipfLimitMs)
	}
	return s.env.measureClosed(s.reqs, seconds)
}

// judge verifies a phase's responses and applies the workload's own
// validity rule; it returns the number of failed operations.
func (r *runner) judge(s *serveRun, ph *servePhase) int {
	failed := s.env.verify(ph.recs)
	if r.name == "serve-warm" && ph.stats.TileDecodes != 0 {
		r.fails.add("serve-warm: %d tile decodes during the timed phase; every request must be a hit", ph.stats.TileDecodes)
		failed = len(ph.recs)
	}
	if ph.stats.Errors != 0 || ph.stats.Shed != 0 {
		r.fails.add("%s: server counted %d errors, %d shed", r.name, ph.stats.Errors, ph.stats.Shed)
	}
	return failed
}

func (r *runner) serve() (*metricSet, error) {
	cfg := r.cfg
	if cfg.trace {
		return r.serveTraced()
	}
	s, setupS, err := repeatSetup(r.serveSetup(cfg.seconds))
	if err != nil {
		return nil, err
	}
	defer s.close()
	r.opsHash = hashRequests(s.reqs)
	ph, err := r.measureServe(s, cfg.seconds)
	if err != nil {
		return nil, err
	}
	r.attempted, r.failed = len(ph.recs), r.judge(s, ph)
	ms := newMetricSet(endToEnd)
	ms.set("setup_s", setupS, setupRepeats)
	lat := latenciesOf(ph.recs)
	if ph.openLoop {
		ms.set("mpix_per_s", ph.goodPixels()/1e6/ph.wall.Seconds(), len(lat))
	} else {
		ms.set("mpix_per_s", ph.cyclePix/1e6/(median(ph.cycleMs)/1e3), len(ph.cycleMs))
	}
	ms.set("op_p50_ms", percentile(lat, 0.50), len(lat))
	ms.set("allocs_per_op", float64(ph.mallocs)/float64(len(lat)), len(lat))
	return ms, nil
}

func (r *runner) serveTraced() (*metricSet, error) {
	cfg := r.cfg
	s, err := r.serveSetup(0.3 * cfg.seconds)(true)
	if err != nil {
		return nil, err
	}
	defer s.close()
	r.opsHash = hashRequests(s.reqs)
	in := &layerInputs{P: cfg.P, g: cfg.g}
	whole0, err := s.env.stats()
	if err != nil {
		return nil, err
	}
	// The workload in its own load shape, untraced: counters and latencies.
	untr, err := r.measureServe(s, 0.3*cfg.seconds)
	if err != nil {
		return nil, err
	}
	r.attempted, r.failed = len(untr.recs), r.judge(s, untr)
	in.srv = untr
	in.primaryOpMs = latenciesOf(untr.recs)
	for _, rec := range untr.recs {
		in.primaryLateMs = append(in.primaryLateMs, rec.lateMs)
	}
	in.heapPeak = untr.heapPeak
	if untr.openLoop {
		in.sloMiss = 1 - float64(untr.within())/float64(len(untr.recs))
	}
	// One connection, every other request traced: the per-request spans, and
	// the pair of medians the tracing overhead is read from.
	tr := newTracer()
	rep := newReplayer(tr)
	defer rep.close()
	seq0, err := s.env.stats()
	if err != nil {
		return nil, err
	}
	traced, plain := s.env.tracedPass(tr, rep, s.reqs, false)
	seq1, err := s.env.stats()
	if err != nil {
		return nil, err
	}
	in.seq = &servePhase{recs: append(traced, plain...), stats: seq1.delta(seq0)}
	r.attempted += len(traced) + len(plain)
	r.failed += s.env.verify(traced) + s.env.verify(plain)
	in.overhead = ratio(median(latenciesOf(traced)), median(latenciesOf(plain)))

	if _, err := r.serveProbes(tr, rep, s.env); err != nil {
		return nil, err
	}
	whole1, err := s.env.stats()
	if err != nil {
		return nil, err
	}
	in.stages = whole1.delta(whole0)

	// The codec layers, as probes on crops of the served images.
	pitems := probeItems([]*item{s.env.imgs[0].it, s.env.imgs[1].it}, cfg.g)
	pc, err := newCodec(cfg.P)
	if err != nil {
		return nil, err
	}
	defer pc.close()
	enc := newBatchDriver(pc, pitems, encodeOps(pitems), r.fails)
	in.enc = enc.runAsProbe(rep, 0.02*cfg.seconds)
	in.encPSNR = enc.verifyEncodes()
	dec := newBatchDriver(pc, pitems, decodeOps(pitems, 0), r.fails)
	in.dec = dec.runAsProbe(rep, 0.02*cfg.seconds)
	in.decPSNR = dec.meanLossyPSNR()

	big := s.env.imgs[0].it
	plane := raster8T(big, cfg.g)
	if err := r.microProbes(tr, rep, big.cs, plane); err != nil {
		return nil, err
	}
	return r.finishTrace(tr, in)
}

// calibrate is how the frozen load constants of serve-zipf were chosen: it
// replays the workload's request list closed loop on P connections — the
// trace's capacity — then open loop at zipfRate, and prints what each latency
// limit would have missed. See README.md.
func calibrate(cfg config) error {
	r := &runner{cfg: cfg, name: "serve-zipf", fails: &failures{}}
	s, err := r.serveSetup(cfg.seconds)(true)
	if err != nil {
		return err
	}
	closed, err := s.env.measureClosed(s.reqs, 0)
	if err != nil {
		return err
	}
	capacity := float64(len(closed.recs)) / closed.wall.Seconds()
	fmt.Printf("closed loop: %d requests in %.2fs = %.1f/s; zipfRate %.1f/s is %.0f%% of that\n",
		len(closed.recs), closed.wall.Seconds(), capacity, zipfRate, 100*zipfRate/capacity)
	s.close()
	if s, err = r.serveSetup(cfg.seconds)(true); err != nil {
		return err
	}
	defer s.close()
	open, err := r.measureServe(s, cfg.seconds)
	if err != nil {
		return err
	}
	lat := latenciesOf(open.recs)
	fmt.Printf("open loop at %.1f/s: p50 %.2f ms, p90 %.2f ms, p95 %.2f ms, p99 %.2f ms, hit ratio %.3f\n", zipfRate,
		percentile(lat, 0.5), percentile(lat, 0.9), percentile(lat, 0.95), percentile(lat, 0.99),
		ratio(float64(open.stats.Hits), float64(open.stats.Hits+open.stats.Misses+open.stats.Coalesced)))
	for _, limit := range []float64{10, 15, 20, 25, 30, 40, 50, 60, 80, 100} {
		open.sloMs = limit
		fmt.Printf("  limit %5.0f ms: slo_miss_ratio %.4f\n", limit, 1-float64(open.within())/float64(len(lat)))
	}
	return nil
}

// serveProbes runs the harness's own requests against env, traced, then the
// direct single-tile decodes; it returns the request pass with the server's
// counters around it.
func (r *runner) serveProbes(tr *tracer, rep *replayer, env *serveEnv) (*servePhase, error) {
	before, err := env.stats()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	recs, _ := env.tracedPass(tr, rep, probeRequests(env.imgs, 8), true)
	wall := time.Since(t0)
	after, err := env.stats()
	if err != nil {
		return nil, err
	}
	if bad := env.verify(recs); bad > 0 {
		r.fails.add("%d of %d probe requests answered wrong", bad, len(recs))
	}
	ph := &servePhase{recs: recs, wall: wall, stats: after.delta(before)}
	return ph, probeTiles(tr, rep, env.imgs[0], 8)
}

// microProbes runs the probes that need no server: the MQ coder, the pool's
// dispatch barrier, the tile cache, the container layer on the tiled
// codestream cs, the two vertical filters on plane, and the response
// encoding of a full viewport.
func (r *runner) microProbes(tr *tracer, rep *replayer, cs []byte, plane *raster.Image) error {
	if err := probeMQ(tr, newRand(r.cfg.seed, "mq"), 1<<19); err != nil {
		r.fails.add("%v", err)
	}
	probeDispatch(tr, r.cfg.P, 2000)
	if err := probeCache(tr, r.cfg.g.T, 200000, 20000); err != nil {
		r.fails.add("%v", err)
	}
	if err := probeContainer(tr, cs); err != nil {
		return err
	}
	probeVertical(tr, plane)
	op, root := probeOp(tr)
	for i := 0; i < 3; i++ {
		rep.pnmWrite(root, op, 8*r.cfg.g.T, 6*r.cfg.g.T, 1)
	}
	tr.end(root, nil)
	return nil
}

// finishTrace derives the per-layer metrics and writes the trace file.
func (r *runner) finishTrace(tr *tracer, in *layerInputs) (*metricSet, error) {
	in.attempted, in.failed = r.attempted, r.failedOps()
	ms := deriveLayers(tr, in)
	path := filepath.Join(r.cfg.outDir, "trace-"+r.name+".json")
	if err := tr.write(path, r.name, r.cfg.seed); err != nil {
		return nil, err
	}
	return ms, nil
}

// encodeItems produces the reference codestream of every item.
func encodeItems(P int, items []*item) error {
	c, err := newCodec(P)
	if err != nil {
		return err
	}
	defer c.close()
	return newBatchDriver(c, items, nil, &failures{}).encodeAll()
}

// raster8T cuts the 8T x 8T top-left corner out of a gray item.
func raster8T(it *item, g geometry) *raster.Image {
	n := 8 * g.T
	out := raster.New(n, n)
	for y := 0; y < n; y++ {
		copy(out.Row(y), it.pl.Comps[0].Row(y)[:n])
	}
	return out
}
