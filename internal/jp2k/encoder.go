package jp2k

import (
	"time"

	"pj2k/internal/core"
	"pj2k/internal/dwt"
	"pj2k/internal/mct"
	"pj2k/internal/quant"
	"pj2k/internal/raster"
	"pj2k/internal/rate"
	"pj2k/internal/t1"
	"pj2k/internal/t2"
)

// Encoder is a reusable encode pipeline. It owns every pooled buffer the
// pipeline's hot loops need — per-worker tier-1 coders and DWT scratch, the
// per-tile coefficient planes, quantization arenas and tier-2 coding state,
// the inter-component transform planes and the rate-allocation scratch. This
// is the per-process state the paper's threads keep privately; server and
// streaming workloads hold one Encoder per concurrent stream.
//
// The pooled state is shape-agnostic: it grows to the largest encode the
// Encoder has run and reshapes in place for any other (DESIGN.md §7). A warm
// encode — one whose image, tiles and code-blocks are no larger than earlier
// encodes', whatever their component count, kernel, tiling, levels or coder
// modes — allocates its returned codestream and EncodeStats, the rate
// allocator's fresh layer tables (three slices per component per allocation
// round), for the 9/7 kernel the quantizer step table, and one closure when a
// lone 9/7 tile is quantized by several workers; nothing per tile, band or
// block.
//
// Multi-component images pipeline natively: the component x tile grid is the
// parallel task axis for the transform, quantization and tier-1 stages;
// rate allocation fans out per component and tier-2 packet assembly per tile
// (shrinking the serial tail the paper's Amdahl analysis charges against
// total speedup); tier-2 interleaves per-component packets into standard
// Csiz=N codestreams.
//
// An Encoder is not safe for concurrent use; pooled state does not leak
// between calls (output is bit-identical to the one-shot Encode function for
// any worker count).
type Encoder struct {
	workers []*encWorker // one padded block per worker (worker.go)

	p            t2.Params       // the codestream the current encode writes, described before any stage runs
	layouts      []t2.TileLayout // per tile: its geometry, derived from p as every reader derives it
	units        []*tileEnc      // per (component, tile): unit u = ci*ntiles + ti
	tcoders      []*t2.TileCoder // per tile: multi-component packet assembly
	jobs         []blockJob
	order        []int     // block ids in tier-1 coding order: pilot first, or the blocks to re-code
	batch        []int     // the run of order the current tier-1 dispatch codes
	lambda       []float64 // per component: stop-rule slope threshold of the current dispatch (0 codes fully)
	groupN       []int     // per (component, level): blocks seen / pilot blocks taken while sampling
	pilotW       []float64 // per pilot block: blocks of its (component, level) group it stands for
	results      []*t1.EncodedBlock
	blockStreams []t2.BlockStream
	rblocks      []rate.BlockPasses
	rates        []int     // arena: per-pass cumulative rates (shared by rate and tier-2)
	dists        []float64 // arena: per-pass weighted distortion deltas
	terms        []bool    // arena: per-pass truncation eligibility (bypass modes)
	weights      []float64
	compBase     []int // first global block id of each component (+ total)
	blockOff     []int // per tile: first component-local block id (+ total)
	compBytes    []int
	allocs       []rate.Allocation
	headerEst    []int
	budgets      [][]int
	tileStreams  [][]byte

	mctPlanes []*raster.Image // pooled level-shifted inter-component planes
	mctFloats [][]float64     // pooled float planes for the ICT rotation
	one       [1]*raster.Image

	// Dispatch funcs bound once at construction, so the hot TasksIDMax call
	// sites pass a stored func instead of allocating a fresh closure per
	// encode; the per-call parameters travel through cur.
	dwtFn   func(worker, u int)
	quantFn func(worker, u int)
	blockFn func(worker, i int)
	rateFn  func(worker, ci int)
	t2Fn    func(worker, ti int)
	mctFn   func(worker, lo, hi int)
	cur     struct {
		o      Options
		mctSrc []*raster.Image // the caller's planes, during the MCT dispatch
		shift  int32           // level shift of the MCT dispatch
		innerW int
	}

	pool    *core.Pool // resident workers for every stage dispatch
	ownPool bool       // created by this Encoder; released by Close

	// stopLambda, when set, replaces the halving of the pilot's cut-off slope
	// (DESIGN.md §8). Tests only: returning 0 forces full coding of every
	// block, +Inf stops every block as early as the certificate allows. The
	// codestream must not depend on it.
	stopLambda func(pilot float64) float64

	// Metrics, when set, receives one per-stage latency/byte record per
	// successful encode (shared by all codecs pointed at the same handle).
	// Set it before the first encode; nil disables recording.
	Metrics *CodecMetrics
}

func newEncoder(p *core.Pool, own bool) *Encoder {
	e := &Encoder{pool: p, ownPool: own}
	e.dwtFn = e.dwtTask
	e.quantFn = e.quantTask
	e.blockFn = e.blockTask
	e.rateFn = e.rateTask
	e.t2Fn = e.t2Task
	e.mctFn = e.mctTask
	return e
}

// NewEncoder returns an empty Encoder; pooled buffers are sized on first use.
// The Encoder owns a persistent worker pool (its workers start on the first
// parallel encode); call Close when done with the Encoder to release them.
func NewEncoder() *Encoder {
	return newEncoder(core.NewPool(0), true)
}

// NewEncoderWithPool returns an Encoder dispatching on a shared worker pool —
// the shape for servers running many codec instances over one resident worker
// set. The caller keeps ownership of the pool: Close releases only the
// Encoder's buffers, never the shared workers.
func NewEncoderWithPool(p *core.Pool) *Encoder {
	if p == nil {
		p = core.Default()
	}
	return newEncoder(p, false)
}

// Close releases the Encoder's worker pool (when owned) and drops the pooled
// buffers, so a retained reference to a closed Encoder pins neither workers
// nor arenas. The Encoder must not be used after Close.
func (e *Encoder) Close() {
	if e.ownPool {
		e.pool.Close()
	}
	*e = Encoder{}
}

// grow returns s with length n, reallocating only when capacity is short.
// Every element s held, out to its capacity, is kept — pooled per-tile and
// per-band state keeps its buffers across shape changes — but is stale from
// the previous call and must be overwritten or reshaped by the caller. It is
// the same rule as t2's grow; keep the two in step.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// reuseImage returns an image of the requested size backed by p's storage
// when it fits.
func reuseImage(p *raster.Image, w, h int) *raster.Image {
	if p == nil || cap(p.Pix) < w*h {
		return raster.New(w, h)
	}
	p.Width, p.Height, p.Stride = w, h, w
	p.Pix = p.Pix[:w*h]
	return p
}

// ensureWorkers makes the first n per-worker blocks exist, each allocated on
// its own. Blocks are kept when a later call uses fewer workers, so shrinking
// Workers between calls keeps every warm buffer.
func (e *Encoder) ensureWorkers(n int) {
	for len(e.workers) < n {
		e.workers = append(e.workers, new(encWorker))
	}
}

// Encode compresses a single-component image into a JPEG2000 codestream.
// The returned codestream is freshly allocated and caller-owned; EncodeStats
// is valid until the next call.
func (e *Encoder) Encode(im *raster.Image, opts Options) ([]byte, *EncodeStats, error) {
	e.one[0] = im
	out, stats, err := e.encode(e.one[:], opts)
	e.one[0] = nil // do not pin the caller's image until the next call
	return out, stats, err
}

// EncodePlanar compresses a multi-component image into a single standard
// codestream with Csiz = NComp. With opts.MCT set (three components only) the
// inter-component transform — the reversible color transform for the 5/3
// kernel, the YCbCr rotation for 9/7 — is applied first and flagged in the
// COD marker, and under lossy rate control the byte budget is split between
// luma and chroma. All components share geometry and bit depth.
func (e *Encoder) EncodePlanar(pl *raster.Planar, opts Options) ([]byte, *EncodeStats, error) {
	if err := pl.Validate(); err != nil {
		return nil, nil, err
	}
	return e.encode(pl.Comps, opts)
}

// chromaShare is the fraction of the byte budget given to each chroma
// component under lossy MCT coding; luma carries most of the perceptual
// weight.
const chromaShare = 0.15

// dwtTask runs the forward DWT over one (component, tile) unit's plane. It is
// the body of the intra-component TasksIDMax dispatch (the paper's Fig. 9
// "improved" scaling, widened by the component axis).
func (e *Encoder) dwtTask(worker, u int) {
	o := &e.cur.o
	te := e.units[u]
	st := dwt.Strategy{
		VertMode: o.VertMode, BlockWidth: o.VertBlockWidth,
		Workers: e.cur.innerW, Scratch: &e.workers[worker].scratch, Pool: e.pool,
	}
	if o.Kernel == dwt.Rev53 {
		dwt.Forward53(te.intPlane, o.Levels, st)
		return
	}
	te.fplane = dwt.FromImageReuse(te.fplane, te.intPlane)
	dwt.Forward97(te.fplane, o.Levels, st)
}

// quantTask quantizes one 9/7 unit band by band into dense int32 views of the
// unit's pooled arena (bands partition the tile, so the arena is exactly
// tile-sized).
func (e *Encoder) quantTask(_, u int) {
	te := e.units[u]
	steps := e.p.Steps[u/len(e.layouts)]
	te.bandInts = grow(te.bandInts, len(te.lay.Subbands))
	if n := te.lay.W * te.lay.H; cap(te.bandArena) < n {
		te.bandArena = make([]int32, n)
	}
	te.qjobs = te.qjobs[:0]
	off := 0
	for bi, b := range te.lay.Subbands {
		te.bandInts[bi] = nil
		if b.Empty() {
			continue
		}
		n := b.Width() * b.Height()
		buf := te.bandArena[off : off+n : off+n]
		off += n
		te.qjobs = append(te.qjobs, quant.BandJob{
			Band: b, Step: steps[bi].Value(), Dst: buf, DstStride: b.Width(),
		})
		te.bandInts[bi] = buf
	}
	quant.ForwardBands(te.fplane.Data, te.fplane.Stride, te.qjobs, e.cur.innerW, e.pool)
}

// blockTask entropy-codes one code-block on the dispatching worker's pooled
// tier-1 Coder ("no synchronization is necessary due to the processing of
// independent code-blocks").
func (e *Encoder) blockTask(worker, i int) {
	id := e.batch[i]
	j := &e.jobs[id]
	w := e.workers[worker]
	eb := w.coder.EncodeStop(j.data, j.w, j.h, j.stride, j.band, e.weights[j.bandIdx], e.lambda[j.comp])
	e.results[id] = eb
	w.passesCoded += len(eb.Passes)
	if eb.Witness != 0 {
		w.blocksStopped++
	}
}

// rateTask runs component ci's PCRD allocation on the dispatching worker's
// pooled allocator — the per-component axis of the parallel rate stage.
func (e *Encoder) rateTask(worker, ci int) {
	o := &e.cur.o
	crb := e.rblocks[e.compBase[ci]:e.compBase[ci+1]]
	if len(o.LayerBPP) == 0 {
		// Single layer carrying every coding pass: PCRD hulls would drop
		// zero-gain final passes, so build the full allocation directly.
		np := make([]int, len(crb))
		for i := range crb {
			np[i] = len(crb[i].Rates)
		}
		e.allocs[ci] = rate.Allocation{NPasses: [][]int{np}, BodyBytes: []int{rate.TotalBytes(crb)}}
		return
	}
	e.allocs[ci] = allocate(&e.workers[worker].ralloc, crb, e.budgets[ci], e.headerEst[ci])
}

// t2Task assembles one tile's packets (all components, LRCP-interleaved) on
// the dispatching worker's scratch views — the cross-tile axis of the
// parallel tier-2 stage. Per-tile coding state (tag trees, packet buffers)
// lives in e.tcoders[ti]; the only worker-shared writes are to per-worker
// scratch.
func (e *Encoder) t2Task(worker, ti int) {
	sc := &e.workers[worker].t2
	comps := e.layouts[ti].Comps
	base := e.blockOff[ti]
	n := e.blockOff[ti+1] - base
	for ci := range comps {
		for li := range e.p.Layers {
			sc.compLayers[ci][li] = e.allocs[ci].NPasses[li][base : base+n]
		}
	}
	if e.tcoders[ti] == nil {
		e.tcoders[ti] = t2.NewTileCoderComps(comps)
	}
	e.tcoders[ti].SOP = e.p.UseSOP
	e.tcoders[ti].EPH = e.p.UseEPH
	e.tcoders[ti].Modes = e.p.CoderModes()
	e.tileStreams[ti] = e.tcoders[ti].EncodeTileCompsPackets(
		comps, e.p.Levels, sc.compLayers[:len(comps)],
		e.tileStreams[ti][:0], sc.compBytes)
}

// setBudgets fills every component's cumulative layer budgets and its first
// header estimate. Under MCT the byte budget splits luma-heavy; other
// multi-component streams split evenly. Headers shrink the body budget:
// estimate here, assemble, and adjust in the tier-2 rounds until the stream
// fits (at most three rounds).
func (e *Encoder) setBudgets() {
	o := &e.cur.o
	ncomp, npixels := e.p.NComp, e.p.Width*e.p.Height
	for ci := 0; ci < ncomp; ci++ {
		share := 1.0
		if ncomp > 1 {
			if o.MCT {
				share = chromaShare
				if ci == 0 {
					share = 1 - 2*chromaShare
				}
			} else {
				share = 1 / float64(ncomp)
			}
		}
		e.budgets[ci] = e.budgets[ci][:0]
		for _, bpp := range o.LayerBPP {
			e.budgets[ci] = append(e.budgets[ci], int(bpp*share*float64(npixels)/8))
		}
		e.headerEst[ci] = 70 + len(e.layouts)*(14+e.p.Layers*(o.Levels+1))
	}
}

// pilotStride is the sampling period of the pilot: every pilotStride-th block
// of each (component, level) group, counted across tiles, is coded in full
// before the rest. A level is a resolution level: the LL band alone, or the
// HL, LH and HH bands of one decomposition level.
const pilotStride = 16

// codeBlocks is the tier-1 stage. Without layer budgets every block is coded
// in full in one dispatch. With them, tier-1 may stop a block once no layer
// can take more of it (DESIGN.md §8), which needs a slope threshold before the
// blocks are coded: a stratified pilot — every pilotStride-th block of each
// (component, level) group — is coded in full first, PCRD's greedy runs over
// the pilot hulls with each block's bytes counted once per block of its group
// it stands for, and half the slope at which that crosses the component's
// largest budget is the threshold the remaining blocks are coded under. The
// threshold only decides how much coding is saved; the post-check in encode
// keeps the output independent of it. Returns the time spent in the pilot's
// PCRD, which is billed to rate allocation, not tier-1.
func (e *Encoder) codeBlocks(stats *EncodeStats) time.Duration {
	o := &e.cur.o
	nblocks, ncomp, nlevels := len(e.jobs), e.p.NComp, e.p.Levels+1
	e.order = grow(e.order, nblocks)
	e.lambda = grow(e.lambda, ncomp)
	clear(e.lambda)
	if len(o.LayerBPP) == 0 {
		for id := range e.order {
			e.order[id] = id
		}
		e.batch = e.order
		e.pool.TasksIDMax(o.Workers, nblocks, e.blockFn)
		return 0
	}

	// Pilot ids first (ascending, so component-major like the jobs), the rest
	// after them.
	group := func(j *blockJob) int {
		return j.comp*nlevels + (j.bandIdx+2)/3 // the band's resolution level: dwt.ResolutionBands inverted
	}
	e.groupN = grow(e.groupN, 2*ncomp*nlevels)
	clear(e.groupN)
	seen, taken := e.groupN[:ncomp*nlevels], e.groupN[ncomp*nlevels:]
	npilot := 0
	for id := range e.jobs {
		j := &e.jobs[id]
		g := group(j)
		if j.pilot = seen[g]%pilotStride == 0; j.pilot {
			e.order[npilot] = id
			npilot++
			taken[g]++
		}
		seen[g]++
	}
	rest := e.order[npilot:npilot]
	for id := range e.jobs {
		if !e.jobs[id].pilot {
			rest = append(rest, id)
		}
	}
	e.batch = e.order[:npilot]
	e.pool.TasksIDMax(o.Workers, npilot, e.blockFn)
	stats.PilotBlocks = npilot

	// Per component: the pilot blocks as allocator inputs, in the arenas the
	// real allocation rebuilds afterwards.
	tPilot := time.Now()
	e.rblocks = grow(e.rblocks, npilot)
	e.pilotW = grow(e.pilotW, npilot)
	rates, dists := e.rates[:0], e.dists[:0]
	for lo := 0; lo < npilot; {
		ci := e.jobs[e.order[lo]].comp
		hi := lo
		for ; hi < npilot && e.jobs[e.order[hi]].comp == ci; hi++ {
			j := &e.jobs[e.order[hi]]
			rates, dists, e.rblocks[hi] = appendPasses(rates, dists, e.results[e.order[hi]], e.weights[j.bandIdx])
			g := group(j)
			e.pilotW[hi] = float64(seen[g]) / float64(taken[g])
		}
		budget := 0
		for _, b := range e.budgets[ci] {
			budget = max(budget, b-e.headerEst[ci])
		}
		lam := e.workers[0].ralloc.CutoffSlope(e.rblocks[lo:hi], e.pilotW[lo:hi], budget)
		if e.stopLambda != nil {
			lam = e.stopLambda(lam)
		} else {
			lam /= 2
		}
		e.lambda[ci] = lam
		lo = hi
	}
	e.rates, e.dists = rates, dists
	pilotPCRD := time.Since(tPilot)

	e.batch = e.order[npilot:]
	e.pool.TasksIDMax(o.Workers, nblocks-npilot, e.blockFn)
	return pilotPCRD
}

// appendPasses appends one block's per-pass cumulative rates and weighted
// distortion deltas to the arenas and returns the allocator's view of them.
func appendPasses(rates []int, dists []float64, eb *t1.EncodedBlock, weight float64) ([]int, []float64, rate.BlockPasses) {
	base := len(rates)
	for _, p := range eb.Passes {
		rates = append(rates, p.Rate)
		dists = append(dists, p.DistDelta*weight)
	}
	return rates, dists, rate.BlockPasses{Rates: rates[base:len(rates):len(rates)], Dist: dists[base:len(dists):len(dists)]}
}

// wireBlocks hands the tier-1 results to their two consumers in one pass: a
// t2.BlockStream per block for packet assembly and a rate.BlockPasses per block
// for the allocator. The per-pass rate list is built once in the shared arena
// and aliased by both. Blocks stay component-major, so each component's
// allocator inputs are one contiguous slice; blockOff records each tile's slice
// of a component's blocks for the parallel tier-2 stage (identical for every
// component — they share the tile geometry).
func (e *Encoder) wireBlocks() {
	ncomp, ntiles, modes := e.p.NComp, len(e.layouts), e.p.CoderModes()
	units := e.units[:ncomp*ntiles]
	totalPasses := 0
	for _, eb := range e.results {
		totalPasses += len(eb.Passes)
	}
	rates := grow(e.rates, totalPasses)[:0]
	dists := grow(e.dists, totalPasses)[:0]
	// Under bypass without TERMALL, only segment boundaries carry exact byte
	// rates (other passes carry margined estimates); restricting PCRD to them
	// keeps every signalled length exact. Under TERMALL every pass is a
	// boundary, so no restriction is needed.
	restrict := modes.Bypass && !modes.TermAll
	terms := e.terms[:0]
	k := 0
	for u, te := range units {
		ci := u / ntiles
		if u%ntiles == 0 {
			e.compBase[ci] = k
		}
		if ci == 0 {
			e.blockOff[u] = k
		}
		kt := 0 // unit-local block index; k stays global for the arenas
		for bi := range te.bands {
			bb := &te.bands[bi]
			bb.Mb = e.p.Mb[ci][bi]
			bb.Blocks = grow(bb.Blocks, len(bb.Grid.Rects))
			for gi := range bb.Blocks {
				eb := te.blocks[kt]
				kt++
				base := len(rates)
				rates, dists, e.rblocks[k] = appendPasses(rates, dists, eb, e.weights[bi])
				bs := &e.blockStreams[k]
				*bs = t2.BlockStream{Data: eb.Data, NumBitplanes: eb.NumBitplanes, PassRates: e.rblocks[k].Rates}
				bb.Blocks[gi] = bs
				if restrict {
					for pi := range eb.Passes {
						terms = append(terms, pi == len(eb.Passes)-1 || modes.TermPass(pi))
					}
					e.rblocks[k].Terminal = terms[base:len(terms):len(terms)]
				}
				k++
			}
		}
	}
	e.compBase[ncomp] = k
	e.blockOff[ntiles] = e.compBase[1] // component 0's total = per-component total
	e.rates, e.dists, e.terms = rates, dists, terms
}

// failedStops lists in e.batch the stopped blocks whose premise the current
// allocation refutes: the final layer takes at least as many passes as the
// block's witness, so the segments beyond it — which a full coding might have
// shaped differently — were in reach of the greedy. With all set it lists
// every block still stopped. Returns the count.
func (e *Encoder) failedStops(all bool) int {
	e.batch = e.order[:0]
	last := e.p.Layers - 1
	for ci := 0; ci < e.p.NComp; ci++ {
		base := e.compBase[ci]
		for i, np := range e.allocs[ci].NPasses[last] {
			if wit := e.results[base+i].Witness; wit != 0 && (all || np >= wit) {
				e.batch = append(e.batch, base+i)
			}
		}
	}
	return len(e.batch)
}

// describe builds in e.p the codestream this encode writes — every field SIZ,
// COD and QCD carry, with Mb sized now and filled once tier-1 has measured it
// — and checks it with the rule every reader applies, so the encoder refuses
// what a decoder would refuse before any stage runs.
func (e *Encoder) describe(width, height, ncomp int, o Options) error {
	tileW, tileH := o.TileW, o.TileH
	if tileW <= 0 || tileH <= 0 {
		tileW, tileH = width, height
	}
	p := &e.p
	*p = t2.Params{
		Width: width, Height: height, TileW: tileW, TileH: tileH,
		NComp: ncomp, BitDepth: o.BitDepth, Levels: o.Levels, Layers: max(len(o.LayerBPP), 1),
		CBW: o.CBW, CBH: o.CBH, MCT: o.MCT, Kernel: o.Kernel, GuardBits: 2,
		Mb: grow(p.Mb, ncomp), Steps: p.Steps[:0],
		UseSOP: o.Resilience.SOP, UseEPH: o.Resilience.EPH, SegSym: o.Resilience.SegSymbols,
		Bypass: o.Coder.Bypass, ResetCtx: o.Coder.ResetCtx,
		TermAll: o.Coder.TermAll, Causal: o.Coder.Causal,
	}
	if o.Kernel == dwt.Irr97 {
		p.Steps = grow(p.Steps, ncomp)
	}
	// Bands are counted at most MaxLevels deep, so a level count out of range
	// costs no memory before CheckGeometry refuses it. The step values wait
	// for the check too: deriving them takes time and memory exponential in
	// the level count.
	nb := 1 + 3*min(max(o.Levels, 0), t2.MaxLevels)
	for ci := range p.Mb {
		p.Mb[ci] = grow(p.Mb[ci], nb)
	}
	for ci := range p.Steps {
		p.Steps[ci] = grow(p.Steps[ci], nb)
	}
	if err := p.CheckGeometry(); err != nil {
		return err
	}
	if len(p.Steps) > 0 {
		steps := quant.BandSteps(dwt.Irr97, width, height, o.Levels, o.BaseStep)
		for _, row := range p.Steps {
			copy(row, steps)
		}
	}
	return nil
}

func (e *Encoder) encode(comps []*raster.Image, opts Options) ([]byte, *EncodeStats, error) {
	o := opts.withDefaults()
	ncomp := len(comps)
	width, height := comps[0].Width, comps[0].Height
	if err := e.describe(width, height, ncomp, o); err != nil {
		return nil, nil, err
	}
	p := &e.p
	stats := &EncodeStats{}
	// Reclaim the tier-1 arenas of the previous encode; every reference into
	// them died with that call's tier-2 assembly.
	for _, w := range e.workers {
		w.coder.Release()
	}

	// --- Inter-component transform (the first stage of the paper's Fig. 1
	// pipeline): level-shift into pooled planes, rotate, and hand the shifted
	// planes to the tiling stage. The float rotation rounds back to integer
	// planes (the arithmetic TestGoldenHashes' colour digests pin).
	tMCT := time.Now()
	e.cur.o = o
	shift := int32(1) << uint(o.BitDepth-1)
	srcs := comps
	srcShift := shift // subtracted during the tile copy
	if o.MCT {
		e.mctPlanes = grow(e.mctPlanes, 3)
		for ci := range e.mctPlanes {
			e.mctPlanes[ci] = reuseImage(e.mctPlanes[ci], width, height)
		}
		if o.Kernel == dwt.Irr97 {
			e.mctFloats = fitFloats(e.mctFloats, width*height)
		}
		e.cur.mctSrc, e.cur.shift = comps, shift
		e.pool.ForIDMax(o.Workers, height, e.mctFn)
		e.cur.mctSrc = nil // do not pin the caller's planes
		srcs = e.mctPlanes
		srcShift = 0
	}
	stats.Timings.InterComp = time.Since(tMCT)

	// --- Pipeline setup: every tile's geometry from p, as the decoder and the
	// index derive it, then the level-shifted copy of each unit. Units
	// enumerate the component x tile grid component-major, so each
	// component's blocks stay contiguous for per-component rate allocation.
	t0 := time.Now()
	ntx, nty := p.NumTiles()
	ntiles := ntx * nty
	nunits := ncomp * ntiles
	e.layouts = grow(e.layouts, ntiles)
	for ti := range e.layouts {
		e.layouts[ti].Reshape(p, ti)
	}
	for len(e.units) < nunits {
		e.units = append(e.units, &tileEnc{})
	}
	units := e.units[:nunits]
	for u, te := range units {
		src, lay := srcs[u/ntiles], &e.layouts[u%ntiles]
		te.lay, te.bands = lay, lay.Comps[u/ntiles]
		te.intPlane = reuseImage(te.intPlane, lay.W, lay.H)
		for y := 0; y < lay.H; y++ {
			off := (lay.Y0+y)*src.Stride + lay.X0
			dst := te.intPlane.Row(y)
			for x, v := range src.Pix[off : off+lay.W] {
				dst[x] = v - srcShift
			}
		}
	}

	// The intra-component transform (DWT) and quantization run parallel
	// ACROSS the component x tile units (the paper's Fig. 9 "improved"
	// scaling, widened by the component axis): with several units each worker
	// transforms whole units serially; a single unit is transformed with all
	// workers cooperating inside it.
	outerW := o.Workers
	if outerW > nunits {
		outerW = nunits
	}
	innerW := o.Workers / outerW
	if innerW < 1 {
		innerW = 1
	}
	// Covers the DWT, quantization, rate (per component) and tier-2 (per
	// tile) stages; tier-1 tops the blocks up once the code-block count is
	// known.
	e.ensureWorkers(min(o.Workers, nunits))
	subbands := e.layouts[0].Subbands
	nbands, nlayers := len(subbands), p.Layers
	e.cur.innerW = innerW
	stats.Timings.Setup = time.Since(t0)

	tDWT := time.Now()
	e.pool.TasksIDMax(outerW, nunits, e.dwtFn)
	stats.Timings.IntraComp = time.Since(tDWT)

	// --- Quantization (9/7 only), then ROI scaling (MAXSHIFT) between
	// quantization and tier-1, as in the Fig. 1 pipeline; the shift applies
	// uniformly across components.
	tQ := time.Now()
	if o.Kernel == dwt.Irr97 {
		e.pool.TasksIDMax(outerW, nunits, e.quantFn)
	}
	if o.ROI != nil {
		p.ROIShift = applyROI(units, *o.ROI, o)
	}
	stats.Timings.Quant = time.Since(tQ)

	// --- Per-band R-D weights (shared by every component and tile: BandNorm
	// reads only a band's type and level): the allocator's distortion scale,
	// and the tier-1 stop rule's. Without layer budgets nothing reads a
	// distortion, so the weights stay 0, which tells tier-1 to compute none.
	tT1 := time.Now()
	weights := grow(e.weights, nbands)
	e.weights = weights
	clear(weights)
	if len(o.LayerBPP) > 0 {
		for bi, b := range subbands {
			step := 1.0
			if o.Kernel == dwt.Irr97 {
				step = p.Steps[0][bi].Value()
			}
			n := dwt.BandNorm(o.Kernel, o.Levels, b)
			weights[bi] = step * step * n * n
		}
	}

	// --- Tier-1: gather every code-block of every unit, encode in parallel
	// with the paper's staggered round-robin worker assignment; each worker
	// codes with its own pooled Coder.
	jobs := e.jobs[:0]
	for u, te := range units {
		for bi, b := range te.lay.Subbands {
			g := te.bands[bi].Grid
			for _, r := range g.Rects {
				var job blockJob
				if o.Kernel == dwt.Rev53 {
					off := (b.Y0+r.Y0)*te.intPlane.Stride + b.X0 + r.X0
					job = blockJob{
						data:   te.intPlane.Pix[off:],
						stride: te.intPlane.Stride,
					}
				} else {
					job = blockJob{
						data:   te.bandInts[bi][r.Y0*b.Width()+r.X0:],
						stride: b.Width(),
					}
				}
				job.w, job.h = r.X1-r.X0, r.Y1-r.Y0
				job.band = b.Type
				job.comp, job.bandIdx = u/ntiles, bi
				jobs = append(jobs, job)
			}
		}
	}
	e.jobs = jobs
	nblocks := len(jobs)
	e.ensureWorkers(min(o.Workers, max(nblocks, 1)))
	modes := p.CoderModes()
	for _, w := range e.workers {
		w.coder.Modes = modes
		w.passesCoded, w.blocksStopped = 0, 0
	}
	e.results = grow(e.results, nblocks)
	e.allocs = grow(e.allocs, ncomp)
	e.headerEst = grow(e.headerEst, ncomp)
	e.budgets = grow(e.budgets, ncomp)
	e.setBudgets()
	pilotPCRD := e.codeBlocks(stats)
	results := e.results
	stats.CodeBlocks = nblocks
	// Distribute results back to units in order. The views alias e.results,
	// so a block re-coded later shows through them.
	k := 0
	for _, te := range units {
		n := 0
		for bi := range te.bands {
			n += len(te.bands[bi].Grid.Rects)
		}
		te.blocks = results[k : k+n]
		k += n
	}
	stats.Timings.Tier1 = time.Since(tT1) - pilotPCRD

	// --- Mb per (component, band) index (global across tiles). A stopped
	// block knows its bit-plane count like any other.
	tRA := time.Now()
	for ci, mb := range p.Mb {
		clear(mb)
		for _, te := range units[ci*ntiles : (ci+1)*ntiles] {
			k := 0
			for bi := range te.bands {
				for range te.bands[bi].Grid.Rects {
					nbp := te.blocks[k].NumBitplanes
					if nbp > mb[bi] {
						mb[bi] = nbp
					}
					stats.PassesPossible += t1.TotalPasses(nbp)
					k++
				}
			}
		}
		for bi := range mb {
			if mb[bi] == 0 {
				mb[bi] = 1
			}
		}
	}

	// --- Rate allocation, parallel per component: PCRD runs per component
	// against its own budget, header estimate and adjustment policy. Then the
	// stop rule's premise is checked against what PCRD chose: a stopped block
	// stands for its full coding only while the final layer takes fewer passes
	// of it than its witness. The (rare) block that fails is coded again in
	// full and the allocation repeated; after the third failed check every
	// block still stopped is re-coded, which ends the loop.
	e.blockStreams = grow(e.blockStreams, nblocks)
	e.rblocks = grow(e.rblocks, nblocks)
	e.compBase = grow(e.compBase, ncomp+1)
	e.blockOff = grow(e.blockOff, ntiles+1)
	t2W := min(o.Workers, max(ntiles, 1))
	for _, w := range e.workers[:t2W] {
		w.t2.size(ncomp, nlayers)
	}
	var recodeTime time.Duration
	for round := 0; ; round++ {
		e.wireBlocks()
		e.pool.TasksIDMax(o.Workers, ncomp, e.rateFn)
		nfail := e.failedStops(round >= 2)
		if nfail == 0 {
			break
		}
		tRe := time.Now()
		clear(e.lambda)
		e.pool.TasksIDMax(o.Workers, nfail, e.blockFn)
		stats.BlocksRecoded += nfail
		recodeTime += time.Since(tRe)
	}
	for _, w := range e.workers {
		stats.PassesCoded += w.passesCoded
		stats.BlocksStopped += w.blocksStopped // re-codes run with lambda 0 and never stop
	}
	stats.Timings.Tier1 += recodeTime
	stats.Timings.RateAlloc = time.Since(tRA) - recodeTime + pilotPCRD

	// --- Tier-2 packet assembly (+ final budget adjustment rounds), parallel
	// ACROSS tiles with per-tile pooled coding state, per-worker scratch
	// views and recycled stream buffers — the stage the paper leaves in the
	// serial tail. Packets interleave components within each (layer,
	// resolution) — the standard's LRCP progression.
	tT2 := time.Now()
	e.tileStreams = grow(e.tileStreams, ntiles)
	for len(e.tcoders) < ntiles {
		e.tcoders = append(e.tcoders, nil)
	}
	e.compBytes = grow(e.compBytes, ncomp)
	compBytes := e.compBytes
	for round := 0; ; round++ {
		for _, w := range e.workers[:t2W] {
			clear(w.t2.compBytes)
		}
		e.pool.TasksIDMax(t2W, ntiles, e.t2Fn)
		clear(compBytes)
		for _, w := range e.workers[:t2W] {
			for ci := 0; ci < ncomp; ci++ {
				compBytes[ci] += w.t2.compBytes[ci]
			}
		}
		if len(o.LayerBPP) == 0 || round >= 2 {
			break
		}
		over := false
		for ci := 0; ci < ncomp; ci++ {
			target := e.budgets[ci][nlayers-1]
			if compBytes[ci]+e.headerEst[ci] > target {
				e.headerEst[ci] += compBytes[ci] + e.headerEst[ci] - target
				crb := e.rblocks[e.compBase[ci]:e.compBase[ci+1]]
				e.allocs[ci] = allocate(&e.workers[0].ralloc, crb, e.budgets[ci], e.headerEst[ci])
				over = true
			}
		}
		if !over {
			break
		}
	}
	stats.Timings.Tier2 = time.Since(tT2)
	for ci := 0; ci < ncomp; ci++ {
		for _, np := range e.allocs[ci].NPasses[nlayers-1] {
			stats.PassesKept += np
		}
	}

	// --- Bitstream I/O.
	tIO := time.Now()
	out := t2.WriteCodestream(*p, e.tileStreams[:ntiles])
	stats.Timings.StreamIO = time.Since(tIO)
	stats.Bytes = len(out)
	stats.BPP = float64(len(out)) * 8 / float64(width*height)
	e.Metrics.recordEncode(stats)
	return out, stats, nil
}

// allocate runs PCRD on the given allocator with the header estimate
// subtracted from each layer budget.
func allocate(a *rate.Allocator, blocks []rate.BlockPasses, budgets []int, headerEst int) rate.Allocation {
	var buf [8]int // room for the usual layer counts without a heap slice
	adj := buf[:0]
	for _, b := range budgets {
		adj = append(adj, max(b-headerEst, 0))
	}
	return a.Allocate(blocks, adj)
}

// mctTask level-shifts rows [lo, hi) of the caller's three planes into the
// pooled planes and applies the forward inter-component transform to them —
// the body of the encoder's inter-component dispatch.
func (e *Encoder) mctTask(_, lo, hi int) {
	shift := e.cur.shift
	for ci, c := range e.cur.mctSrc {
		p := e.mctPlanes[ci]
		for y := lo; y < hi; y++ {
			dst := p.Row(y)
			for x, v := range c.Row(y) {
				dst[x] = v - shift
			}
		}
	}
	interComp(e.mctPlanes, e.mctFloats, e.cur.o.Kernel, true, lo, hi)
}

// fitFloats sizes three pooled float planes to n samples each.
func fitFloats(fl [][]float64, n int) [][]float64 {
	fl = grow(fl, 3)
	for ci := range fl {
		fl[ci] = grow(fl[ci], n)
	}
	return fl
}

// rowsOf views rows [lo, hi) of im as an image of their own.
func rowsOf(im *raster.Image, lo, hi int) raster.Image {
	return raster.Image{Width: im.Width, Height: hi - lo, Stride: im.Stride, Pix: im.Pix[lo*im.Stride:]}
}

// interComp applies the inter-component transform to rows [lo, hi) of three
// equally sized planes in place: the RCT for the 5/3 kernel; for 9/7 the ICT
// rotation, through the same rows of the float planes fl, rounded back half
// away from zero. It runs serially on its rows, so each codec dispatches it
// with a func bound once; the encoder (fwd) and decoder share it, so the
// rounding arithmetic cannot diverge between the two.
func interComp(planes []*raster.Image, fl [][]float64, k dwt.Kernel, fwd bool, lo, hi int) {
	if k == dwt.Rev53 {
		a, b, c := rowsOf(planes[0], lo, hi), rowsOf(planes[1], lo, hi), rowsOf(planes[2], lo, hi)
		// The planes share one size, so neither transform can fail.
		if fwd {
			_ = mct.ForwardRCT(&a, &b, &c, 1, nil)
		} else {
			_ = mct.InverseRCT(&a, &b, &c, 1, nil)
		}
		return
	}
	w := planes[0].Width
	for ci, im := range planes {
		f := fl[ci]
		for y := lo; y < hi; y++ {
			for x, v := range im.Row(y) {
				f[y*w+x] = float64(v)
			}
		}
	}
	f0, f1, f2 := fl[0][lo*w:hi*w], fl[1][lo*w:hi*w], fl[2][lo*w:hi*w]
	if fwd {
		mct.ForwardICT(f0, f1, f2, 1, nil)
	} else {
		mct.InverseICT(f0, f1, f2, 1, nil)
	}
	for ci, im := range planes {
		f := fl[ci]
		for y := lo; y < hi; y++ {
			row := im.Row(y)
			for x := range row {
				if v := f[y*w+x]; v >= 0 {
					row[x] = int32(v + 0.5)
				} else {
					row[x] = int32(v - 0.5)
				}
			}
		}
	}
}
