package main

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"time"

	"pj2k/internal/core"
	"pj2k/internal/dwt"
	"pj2k/internal/jp2k"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// failures collects correctness failures: a count, and the first few messages
// for the report.
type failures struct {
	n    int
	msgs []string
}

func (f *failures) add(format string, args ...any) {
	f.n++
	if len(f.msgs) < 8 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

// cycleRec is one pass over a batch workload's operation list at one worker
// count. Its wall time is the sum of its operations' times: the output checks
// between operations are not part of what is measured.
type cycleRec struct {
	workers int
	opMs    []float64
	lateMs  []float64
}

func (c cycleRec) wall() float64 { return sum(c.opMs) }

// batchPhase is what one timed phase of a batch workload produced.
type batchPhase struct {
	cycles    []cycleRec
	ops       int
	mallocs   uint64
	heapPeak  uint64
	poolDisp  int64 // dispatches during Workers=P cycles
	poolWait  int64 // nanoseconds inside dispatch barriers during Workers=P cycles
	wallAtP   time.Duration
	opsAtP    int
	outBytes  int     // encode: codestream bytes of one cycle
	pixels    float64 // pixels in (encode) or out (decode) per cycle
	opsPerCyc int
}

// walls returns the cycle walls (ms) at the given worker count.
func (p *batchPhase) walls(workers int) []float64 {
	var out []float64
	for _, c := range p.cycles {
		if c.workers == workers {
			out = append(out, c.wall())
		}
	}
	return out
}

// lates returns, for every operation, how long after the previous one's end
// it started (ms): the harness's own time between calls.
func (p *batchPhase) lates() []float64 {
	var out []float64
	for _, c := range p.cycles {
		out = append(out, c.lateMs...)
	}
	return out
}

// opsAt returns every operation time (ms) at the given worker count.
func (p *batchPhase) opsAt(workers int) []float64 {
	var out []float64
	for _, c := range p.cycles {
		if c.workers == workers {
			out = append(out, c.opMs...)
		}
	}
	return out
}

// codec is one pooled encoder and one pooled decoder on a benchmark-owned
// worker pool of P workers.
//
// At the commit that defined the benchmark, the speed of a Workers=P encode
// depends on where the allocator happens to put the per-worker tier-1 coders:
// their MQ encoder states are small objects allocated back to back, and when
// two of them share a cache line the workers slow each other down to the
// speed of one (measured: 3.5 to 7.0 Mpix/s on the same seed, process to
// process; padding the struct in a scratch copy made it 7 every time). A
// measured codec is therefore created and primed — one small encode and
// decode at Workers=P, which allocates every per-worker coder — first thing
// in the process, before the corpus exists and before any collection has run,
// and on a single P, so that one allocator cache hands out every object in
// program order. The placement, and with it the number, is then the same on
// every run (on this toolchain it is the fast one).
type codec struct {
	P    int
	pool *core.Pool
	enc  *jp2k.Encoder
	dec  *jp2k.Decoder
}

func newCodec(P int) (*codec, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pool := core.NewPool(P)
	c := &codec{P: P, pool: pool, enc: jp2k.NewEncoderWithPool(pool), dec: jp2k.NewDecoderWithPool(pool)}
	cs, _, err := c.enc.Encode(raster.Synthetic(64, 64, 1), jp2k.Options{Workers: P})
	if err == nil {
		_, err = c.dec.Decode(cs, jp2k.DecodeOptions{Workers: P})
	}
	if err != nil {
		c.close()
		return nil, fmt.Errorf("bench: priming the codec: %w", err)
	}
	return c, nil
}

func (c *codec) close() {
	c.enc.Close()
	c.dec.Close()
	c.pool.Close()
}

// batchDriver runs one of the two batch workloads: a closed loop with one
// caller and one pooled codec.
type batchDriver struct {
	*codec
	items []*item
	ops   []batchOp
	fails *failures
	rep   *replayer // nil when untraced; its tracer takes the spans
	probe bool      // ops are harness probes, not the workload's own

	// refs holds, per op, the reference the first execution left behind:
	// the codestream CRC (encode) or the decoded image's hash (decode). Later
	// executions, at any worker count, must reproduce it exactly.
	refs  []uint64
	psnrs []float64 // per op: PSNR of the reference (0 for bit-exact ones)
}

// batchOp is one operation of a batch cycle. Encode ops carry only the item;
// decode ops add the decode options.
type batchOp struct {
	it     *item
	decode bool
	dopts  jp2k.DecodeOptions
}

func (o batchOp) label() string {
	if !o.decode {
		return o.it.name
	}
	return fmt.Sprintf("%s/r%d/l%d", o.it.name, o.dopts.DiscardLevels, o.dopts.MaxLayers)
}

func encodeOps(items []*item) []batchOp {
	ops := make([]batchOp, len(items))
	for i, it := range items {
		ops[i] = batchOp{it: it}
	}
	return ops
}

// decodeOps is the decode cycle: every item in full, then the tiled layered
// item (index scalable) at a quarter of the resolution and at its first layer
// only — the scalable-decode paths.
func decodeOps(items []*item, scalable int) []batchOp {
	var ops []batchOp
	for _, it := range items {
		ops = append(ops, batchOp{it: it, decode: true})
	}
	scal := items[scalable]
	return append(ops,
		batchOp{it: scal, decode: true, dopts: jp2k.DecodeOptions{DiscardLevels: 2}},
		batchOp{it: scal, decode: true, dopts: jp2k.DecodeOptions{MaxLayers: 1}})
}

// newBatchDriver runs ops over items on c, which the caller keeps owning.
func newBatchDriver(c *codec, items []*item, ops []batchOp, fails *failures) *batchDriver {
	return &batchDriver{
		codec: c, items: items, ops: ops, fails: fails,
		refs: make([]uint64, len(ops)), psnrs: make([]float64, len(ops)),
	}
}

// encodeAll produces every item's reference codestream (set-up of the decode
// workload, and of the served corpus).
func (d *batchDriver) encodeAll() error {
	for _, it := range d.items {
		o := it.opts
		o.Workers = d.P
		cs, _, err := d.enc.EncodePlanar(it.pl, o)
		if err != nil {
			return fmt.Errorf("bench: encoding %s: %w", it.name, err)
		}
		it.cs = cs
	}
	return nil
}

// warm runs one untimed cycle at Workers=P, which sizes every pooled buffer
// and leaves the references behind.
func (d *batchDriver) warm() {
	d.cycle(d.P, true)
}

// cycle runs the operation list once at the given worker count.
func (d *batchDriver) cycle(workers int, first bool) cycleRec {
	rec := cycleRec{workers: workers, opMs: make([]float64, len(d.ops)), lateMs: make([]float64, len(d.ops))}
	for i := range d.ops {
		rec.opMs[i], rec.lateMs[i] = d.run(i, workers, first)
	}
	return rec
}

// run executes operation i once and checks its output; it returns the time
// of the public call alone, and the time the harness spent around it
// (checks, hashing, replay) — how late the next call starts in this closed
// loop.
func (d *batchDriver) run(i, workers int, first bool) (ms, lateMs float64) {
	t0 := time.Now()
	op := &d.ops[i]
	root, opID := -1, 0
	if d.rep != nil {
		tr := d.rep.tr
		opID = tr.newOp()
		kind := "op.encode"
		if op.decode {
			kind = "op.decode"
		}
		root = tr.begin(-1, opID, kind)
		tr.annotate(root, func(s *span) { s.Workers, s.Probe = workers, d.probe })
		defer tr.end(root, nil)
	}
	if op.decode {
		ms = d.runDecode(i, op, workers, first, root, opID)
	} else {
		ms = d.runEncode(i, op, workers, first, root, opID)
	}
	return ms, float64(time.Since(t0))/1e6 - ms
}

func (d *batchDriver) runEncode(i int, op *batchOp, workers int, first bool, root, opID int) float64 {
	o := op.it.opts
	o.Workers = workers
	call := -1
	if d.rep != nil {
		call = d.rep.tr.begin(root, opID, "jp2k.EncodePlanar")
	}
	t0 := time.Now()
	cs, st, err := d.enc.EncodePlanar(op.it.pl, o)
	dt := time.Since(t0)
	if err != nil {
		d.fails.add("encode %s: %v", op.label(), err)
		return float64(dt) / 1e6
	}
	if d.rep != nil {
		tr := d.rep.tr
		tr.end(call, func(s *span) {
			s.Workers, s.Mpix, s.Bytes, s.N = workers, op.it.mpix(), int64(len(cs)), int64(st.CodeBlocks)
		})
		if workers == 1 {
			tm := st.Timings
			tr.reported(call, opID, encStageSpans[:], []time.Duration{
				tm.Setup, tm.InterComp, tm.IntraComp, tm.Quant, tm.Tier1, tm.RateAlloc, tm.Tier2, tm.StreamIO})
		}
		rp := tr.begin(root, opID, "replay")
		d.rep.encode(rp, opID, op.it)
		tr.end(rp, nil)
	}
	crc := uint64(crc32.Checksum(cs, castagnoli))<<32 | uint64(uint32(len(cs)))
	if first {
		d.refs[i] = crc
		op.it.cs = cs
	} else if crc != d.refs[i] {
		d.fails.add("encode %s at Workers=%d: codestream differs from the reference", op.label(), workers)
	}
	return float64(dt) / 1e6
}

func (d *batchDriver) runDecode(i int, op *batchOp, workers int, first bool, root, opID int) float64 {
	o := op.dopts
	o.Workers = workers
	o.VertMode = dwt.VertBlocked
	src := t2.BytesSource(op.it.cs)
	call := -1
	if d.rep != nil {
		call = d.rep.tr.begin(root, opID, "jp2k.DecodePlanarSource")
	}
	t0 := time.Now()
	pl, err := d.dec.DecodePlanarSource(src, o)
	dt := time.Since(t0)
	if err != nil {
		d.fails.add("decode %s: %v", op.label(), err)
		return float64(dt) / 1e6
	}
	if d.rep != nil {
		tr, st := d.rep.tr, d.dec.Stats()
		tr.end(call, func(s *span) {
			s.Workers, s.Mpix, s.N = workers, float64(pl.Width()*pl.Height())/1e6, int64(st.CodeBlocks)
		})
		if workers == 1 {
			tm := st.Timings
			tr.reported(call, opID, decStageSpans[:], []time.Duration{
				tm.Parse, tm.Tier2, tm.Tier1, tm.Assemble, tm.InterComp})
		}
		rp := tr.begin(root, opID, "replay")
		got, err := d.rep.decode(rp, opID, op.it.cs, o.DiscardLevels, o.MaxLayers)
		tr.end(rp, nil)
		if err != nil {
			d.fails.add("replay of decode %s: %v", op.label(), err)
		} else if !raster.PlanarEqual(got, pl) {
			d.fails.add("replay of decode %s: layer-by-layer result differs from the decoder's", op.label())
		}
	}
	h := hashPlanar(pl)
	if first {
		d.refs[i] = h
		p, err := checkDecoded(op.it, pl, o.DiscardLevels, o.MaxLayers == 0)
		if err != nil {
			d.fails.add("decode %v", err)
		}
		d.psnrs[i] = p
	} else if h != d.refs[i] {
		d.fails.add("decode %s at Workers=%d: image differs from the reference", op.label(), workers)
	}
	return float64(dt) / 1e6
}

// runAsProbe runs the driver as a probe of a traced run: a warm cycle, an
// untraced phase of the given length, which it returns, then one traced pair
// of cycles marked as the harness's own.
func (d *batchDriver) runAsProbe(rep *replayer, seconds float64) *batchPhase {
	d.warm()
	ph := d.measure(seconds)
	d.rep, d.probe = rep, true
	d.measure(0)
	d.rep = nil
	return ph
}

// measure alternates Workers=1 and Workers=P cycles until seconds have
// passed. Alternating keeps slow drifts of the host out of the ratio of the
// two.
func (d *batchDriver) measure(seconds float64) *batchPhase {
	ph := &batchPhase{opsPerCyc: len(d.ops)}
	for _, op := range d.ops {
		ph.pixels += float64(d.outPixels(&op))
		if !op.decode {
			ph.outBytes += len(op.it.cs)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for {
		ph.cycles = append(ph.cycles, d.cycle(1, false))
		s0, t0 := d.pool.Stats(), time.Now()
		ph.cycles = append(ph.cycles, d.cycle(d.P, false))
		s1 := d.pool.Stats()
		ph.wallAtP += time.Since(t0)
		ph.opsAtP += len(d.ops)
		ph.poolDisp += s1.Dispatches - s0.Dispatches
		ph.poolWait += s1.WaitNanos - s0.WaitNanos
		runtime.ReadMemStats(&m1)
		ph.heapPeak = max(ph.heapPeak, m1.HeapInuse)
		if time.Since(start).Seconds() >= seconds {
			break
		}
	}
	ph.mallocs = m1.Mallocs - m0.Mallocs
	ph.ops = len(ph.cycles) * len(d.ops)
	return ph
}

func (d *batchDriver) outPixels(op *batchOp) int {
	w, h := op.it.pl.Width(), op.it.pl.Height()
	for i := 0; i < op.dopts.DiscardLevels; i++ {
		w, h = (w+1)/2, (h+1)/2
	}
	return w * h
}

// verifyEncodes decodes every reference codestream the encode ops left behind
// and judges it against the original; it returns the mean PSNR of the lossy
// items.
func (d *batchDriver) verifyEncodes() float64 {
	var lossy []float64
	for i := range d.ops {
		op := &d.ops[i]
		if op.decode {
			continue
		}
		pl, err := d.dec.DecodePlanarSource(t2.BytesSource(op.it.cs),
			jp2k.DecodeOptions{Workers: d.P, VertMode: dwt.VertBlocked})
		if err != nil {
			d.fails.add("decoding the encoded %s: %v", op.it.name, err)
			continue
		}
		p, err := checkDecoded(op.it, pl, 0, true)
		if err != nil {
			d.fails.add("encode %v", err)
		}
		d.psnrs[i] = p
		if !op.it.lossless {
			lossy = append(lossy, p)
		}
	}
	return ratio(sum(lossy), float64(len(lossy)))
}

// meanLossyPSNR averages the reference PSNR of the full decodes of lossy
// items (decode ops).
func (d *batchDriver) meanLossyPSNR() float64 {
	var lossy []float64
	for i, op := range d.ops {
		if op.decode && !op.it.lossless && op.dopts.DiscardLevels == 0 && op.dopts.MaxLayers == 0 {
			lossy = append(lossy, d.psnrs[i])
		}
	}
	return ratio(sum(lossy), float64(len(lossy)))
}

// Span names of the stage timings the codec reports, in the order of
// jp2k.EncStageNames / jp2k.DecStageNames.
var (
	encStageSpans = func() (out [jp2k.NumEncStages]string) {
		for i, n := range jp2k.EncStageNames {
			out[i] = "enc." + n
		}
		return
	}()
	decStageSpans = func() (out [jp2k.NumDecStages]string) {
		for i, n := range jp2k.DecStageNames {
			out[i] = "dec." + n
		}
		return
	}()
)
