package jp2k

import (
	"context"
	"fmt"
	"math"
	"time"

	"pj2k/internal/core"
	"pj2k/internal/dwt"
	"pj2k/internal/mct"
	"pj2k/internal/quant"
	"pj2k/internal/raster"
	"pj2k/internal/t1"
	"pj2k/internal/t2"
)

// Rect is an axis-aligned rectangle ([X0,X1) x [Y0,Y1)) in the coordinate
// system of the image a decode produces — for DiscardLevels > 0 that is the
// reduced grid, the natural addressing for a viewer that already fetched the
// stream's geometry at that scale.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// Dx returns the rectangle's width.
func (r Rect) Dx() int { return r.X1 - r.X0 }

// Dy returns the rectangle's height.
func (r Rect) Dy() int { return r.Y1 - r.Y0 }

// Empty reports whether the rectangle contains no pixels.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Intersect returns the intersection of r and o (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	if o.X0 > r.X0 {
		r.X0 = o.X0
	}
	if o.Y0 > r.Y0 {
		r.Y0 = o.Y0
	}
	if o.X1 < r.X1 {
		r.X1 = o.X1
	}
	if o.Y1 < r.Y1 {
		r.Y1 = o.Y1
	}
	return r
}

// Decoder is a reusable decode pipeline mirroring Encoder: it owns every
// pooled buffer the decode hot loops need — per-worker tier-1 block decoders
// and DWT scratch, per-tile tier-2 coding state, packet-segment accumulators
// and per-component coefficient planes — so repeated decodes reach a steady
// state with near-zero heap allocations beyond the returned image. Server
// workloads hold one Decoder per concurrent stream (or a sync.Pool of them)
// and decode windows out of large codestreams without ever reconstructing the
// full image.
//
// Multi-component codestreams decode natively: the packet walk de-interleaves
// per-component packets per tile, tier-1 runs over every kept (tile,
// component, block) job, and assembly + inverse transform parallelize over
// the tile x component grid; the inverse inter-component transform is applied
// when the stream's COD marker flags MCT.
//
// Every entry point (Decode here; the Source forms in stream.go) is a thin
// adapter over the one decode route: from a scanned codestream's tile spans,
// walk the selected tiles' packets, tier-1, assemble. DecodeRegion takes the
// scan from a t2.Index; the others scan the Source first. A Decoder is not
// safe for concurrent use; pooled state does not leak between calls (output
// is bit-identical to a throwaway Decoder's for any worker count, and a
// region decode is bit-identical to cropping a full one).
type Decoder struct {
	workers    []*decWorker // one padded block per worker (worker.go)
	tiles      []*tileDec
	jobs       []decJob
	tileErrs   []error
	blockErrs  []error
	tileIOFail []bool            // per selected tile: body unreadable (resilient decodes)
	tileDmg    []t2.DecodeDamage // per selected tile (resilient decodes)
	blockStats []t1.SegStats     // per tier-1 job (resilient decodes)
	damage     *DamageReport     // of the last resilient decode
	colW, rowH []int
	sel        []int
	mctFloats  [][]float64 // pooled float planes for the inverse ICT

	// Dispatch funcs bound once at construction, so the hot TasksIDMax call
	// sites pass a stored func instead of allocating a fresh closure per
	// decode; the per-call parameters travel through cur.
	walkFn  func(worker, si int)
	blockFn func(worker, i int)
	asmFn   func(worker, u int)
	cur     struct {
		p     t2.Params
		modes t1.Modes // tier-1 coder modes signalled in COD
		// The codestream travels as src + the scanned tile spans.
		src      *t2.Source
		spans    []t2.TileSpan
		dst      []*raster.Image // one output plane per component
		win      Rect
		ncomp    int
		nlayers  int
		discard  int
		keep     int
		ntx      int
		innerW   int
		outShift int32
		opts     DecodeOptions
	}

	pool    *core.Pool // resident workers for every stage dispatch
	ownPool bool       // created by this Decoder; released by Close

	// Metrics, when set, receives one per-stage latency/byte record per
	// successful decode (shared by all codecs pointed at the same handle).
	// Set it before the first decode; nil disables recording.
	Metrics *CodecMetrics
	stats   DecodeStats // of the most recent decode
}

// Stats returns the stage timings and input accounting of the most recent
// decode on this Decoder (zero after a failed decode). The returned value is
// a snapshot; it does not change when the Decoder is reused.
func (d *Decoder) Stats() DecodeStats { return d.stats }

// decSlot is one kept (entropy-decoded) code-block of a tile component.
type decSlot struct {
	bi   int
	rect t2.CBRect
	id   int // component-local block id within the tile
	vals []int32
}

// decJob addresses one kept block: selected-tile slot x component x block
// slot.
type decJob struct {
	ti, ci, si int
}

// compDec is the pooled per-(tile, component) decode state.
type compDec struct {
	bands  []t2.BandBlocks
	dec    []t2.DecodedBlock
	slots  []decSlot
	plane  *raster.Image // 5/3 coefficient plane
	fplane *dwt.FPlane   // 9/7 coefficient plane
}

// tileDec is the pooled per-tile decode state: geometry shared across
// components plus one compDec per component.
type tileDec struct {
	body     []byte // pooled read buffer for the tile-part body
	w, h     int    // full-resolution tile dims
	rtw, rth int    // reduced dims
	ox, oy   int    // origin in the reduced image
	subbands []dwt.Subband
	gridKey  gridKey
	ncomp    int
	comps    []compDec
	bandsV   [][]t2.BandBlocks // per-component views for the packet walk
	decV     [][]t2.DecodedBlock
	tc       *t2.TileCoder
}

func newDecoder(p *core.Pool, own bool) *Decoder {
	d := &Decoder{pool: p, ownPool: own}
	d.walkFn = d.walkTask
	d.blockFn = d.blockTask
	d.asmFn = d.asmTask
	return d
}

// NewDecoder returns an empty Decoder; pooled buffers are sized on first use.
// The Decoder owns a persistent worker pool (its workers start on the first
// parallel decode); call Close when done with the Decoder to release them.
func NewDecoder() *Decoder {
	return newDecoder(core.NewPool(0), true)
}

// NewDecoderWithPool returns a Decoder dispatching on a shared worker pool —
// the tile-server shape, where every request's decodes fan into one resident
// worker set. The caller keeps ownership of the pool: Close releases only the
// Decoder's buffers, never the shared workers.
func NewDecoderWithPool(p *core.Pool) *Decoder {
	if p == nil {
		p = core.Default()
	}
	return newDecoder(p, false)
}

// Close releases the Decoder's worker pool (when owned) and drops the pooled
// buffers, so a retained reference to a closed Decoder pins neither workers
// nor arenas. The Decoder must not be used after Close.
func (d *Decoder) Close() {
	if d.ownPool {
		d.pool.Close()
	}
	*d = Decoder{}
}

// Damage returns the damage report of the most recent resilient decode: what
// the best-effort pipeline salvaged around, concealed or lost. It returns nil
// when the last decode was strict (DecodeOptions.Resilient false) or failed
// outright. The report is replaced by the next decode on this Decoder.
func (d *Decoder) Damage() *DamageReport { return d.damage }

// ctxErr is the between-stages cancellation probe; a nil context means the
// decode is unbounded.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ensureWorkers makes the first n per-worker blocks exist, mirroring
// Encoder.ensureWorkers.
func (d *Decoder) ensureWorkers(n int) {
	for len(d.workers) < n {
		w := new(decWorker)
		// Under Bypass+TERMALL a block's raw significance and refinement
		// segments decode concurrently on the shared pool (nested dispatches
		// run inline when the workers are saturated by the per-block fan-out).
		w.bd.Pool = d.pool
		d.workers = append(d.workers, w)
	}
}

// Decode reconstructs the full image from a resident single-component
// codestream. With DiscardLevels > 0 the result is the 1/2^n-scale image
// carried by the lower resolutions of the stream. The returned image is
// freshly allocated and caller-owned. Multi-component streams are an error,
// reported before any tier-1 work; use DecodePlanarSource.
func (d *Decoder) Decode(data []byte, opts DecodeOptions) (*raster.Image, error) {
	src := t2.BytesSource(data)
	cs, err := scan(src, opts.Resilient)
	if err == nil && cs.p.Components() != 1 {
		err = fmt.Errorf("jp2k: %d-component stream; use DecodePlanarSource/DecodeRegionPlanarSource", cs.p.Components())
	}
	if err != nil {
		d.damage, d.stats = nil, DecodeStats{}
		return nil, err
	}
	pl, err := d.decode(src, &cs, opts, nil)
	if err != nil {
		return nil, err
	}
	return pl.Comps[0], nil
}

// walkTask parses one selected tile's packet headers and accumulates its
// code-block segments — the body of the cross-tile tier-2 dispatch.
func (d *Decoder) walkTask(_, si int) {
	p := &d.cur.p
	ncomp, nlayers, discard, ntx := d.cur.ncomp, d.cur.nlayers, d.cur.discard, d.cur.ntx
	nbands := 1 + 3*p.Levels
	ti := d.sel[si]
	tx, ty := ti%ntx, ti/ntx
	te := d.tiles[si]
	// Read the tile-part body from its span into the pooled per-tile buffer
	// (only selected tiles are ever read, which is what bounds a window
	// decode's IO to its tiles). A negative Off is the sentinel for a
	// tile-part the resilient scan could not locate (truncated chain); it and
	// a concealed unreadable body leave data nil, an empty (gray) tile.
	var data []byte
	if sp := d.cur.spans[ti]; sp.Off >= 0 {
		te.body = grow(te.body, int(sp.Len))
		_, err := d.cur.src.ReadAt(te.body, sp.Off)
		switch {
		case err == nil:
			data = te.body
		case !d.cur.opts.Resilient:
			d.tileErrs[si] = &TileIOError{Tile: ti, Off: sp.Off, Len: sp.Len, Err: err}
			return
		default:
			// The body is unreadable after whatever retries the source
			// performed: conceal the whole tile and record the IO damage
			// class — unreadable bytes degrade, they do not abort.
			d.tileIOFail[si] = true
		}
	}
	x0, y0 := tx*p.TileW, ty*p.TileH
	te.w = min(x0+p.TileW, p.Width) - x0
	te.h = min(y0+p.TileH, p.Height) - y0
	te.rtw, te.rth = reduceDim(te.w, discard), reduceDim(te.h, discard)
	te.ox, te.oy = d.colW[tx], d.rowH[ty]

	if len(te.comps) < ncomp {
		te.comps = append(te.comps, make([]compDec, ncomp-len(te.comps))...)
	}
	te.bandsV = grow(te.bandsV, ncomp)
	te.decV = grow(te.decV, ncomp)
	key := gridKey{te.w, te.h, p.Levels, p.CBW, p.CBH}
	if te.gridKey != key || te.ncomp != ncomp {
		te.gridKey = key
		te.ncomp = ncomp
		te.subbands = dwt.SubbandsAppend(te.subbands[:0], te.w, te.h, p.Levels)
		for bi, b := range te.subbands {
			g := t2.MakeGrid(b, p.CBW, p.CBH)
			for ci := 0; ci < ncomp; ci++ {
				cd := &te.comps[ci]
				cd.bands = grow(cd.bands, nbands)
				cd.bands[bi] = t2.BandBlocks{Grid: g}
			}
		}
	}
	for ci := 0; ci < ncomp; ci++ {
		cd := &te.comps[ci]
		for bi := range cd.bands {
			cd.bands[bi].Mb = p.Mb[ci][bi]
		}
		te.bandsV[ci] = cd.bands
		te.decV[ci] = cd.dec
	}
	if te.tc == nil {
		te.tc = t2.NewTileCoderComps(te.bandsV[:ncomp])
	}
	te.tc.SOP, te.tc.EPH = p.UseSOP, p.UseEPH
	te.tc.Modes = d.cur.modes
	var decV [][]t2.DecodedBlock
	if d.cur.opts.Resilient {
		decV, _, d.tileDmg[si] = te.tc.DecodeTileCompsPacketsResilient(
			te.bandsV[:ncomp], p.Levels, nlayers, data, te.decV[:ncomp])
	} else {
		var err error
		decV, _, err = te.tc.DecodeTileCompsPackets(te.bandsV[:ncomp], p.Levels, nlayers, data, te.decV[:ncomp])
		if err != nil {
			d.tileErrs[si] = fmt.Errorf("jp2k: tile %d: %w", ti, err)
			return
		}
	}

	// Enumerate the blocks to entropy-decode: bands of discarded
	// resolutions were parsed (the packet walk needs their headers) but
	// are skipped here.
	for ci := 0; ci < ncomp; ci++ {
		cd := &te.comps[ci]
		cd.dec = decV[ci]
		cd.slots = cd.slots[:0]
		id := 0
		for bi := range cd.bands {
			keep := bi == 0 || te.subbands[bi].Level > discard
			for _, r := range cd.bands[bi].Grid.Rects {
				if keep {
					cd.slots = append(cd.slots, decSlot{bi: bi, rect: r, id: id})
				}
				id++
			}
		}
	}
}

// blockTask entropy-decodes one kept code-block on the dispatching worker's
// pooled BlockDecoder.
func (d *Decoder) blockTask(worker, i int) {
	te := d.tiles[d.jobs[i].ti]
	cd := &te.comps[d.jobs[i].ci]
	s := &cd.slots[d.jobs[i].si]
	blk := &cd.dec[s.id]
	// The coder modes travel from COD into each block decode; segmentation
	// symbols (when the stream carries them) are verified in strict mode too —
	// a symbol-carrying stream is self-checking — and drive concealment in
	// resilient mode.
	in := t1.BlockIn{
		W: s.rect.X1 - s.rect.X0, H: s.rect.Y1 - s.rect.Y0,
		Band:         te.subbands[s.bi].Type,
		NumBitplanes: blk.NumBitplanes,
		Data:         blk.Data,
		NPasses:      blk.Passes,
		Modes:        d.cur.modes,
		SegEnds:      blk.SegmentEnds(d.cur.modes),
	}
	s.vals, d.blockStats[i], d.blockErrs[i] = d.workers[worker].bd.DecodeBlock(&in, d.cur.opts.Resilient)
}

// asmTask assembles one (selected tile, component) unit's coefficient plane,
// runs the inverse transform and copies the window into the output.
func (d *Decoder) asmTask(worker, u int) {
	p := &d.cur.p
	ncomp, win, opts := d.cur.ncomp, d.cur.win, &d.cur.opts
	te := d.tiles[u/ncomp]
	ci := u % ncomp
	cd := &te.comps[ci]
	if p.ROIShift > 0 {
		for _, s := range cd.slots {
			unscaleROI(s.vals, p.ROIShift)
		}
	}
	st := dwt.Strategy{
		VertMode: opts.VertMode, BlockWidth: opts.VertBlockWidth,
		Workers: d.cur.innerW, Scratch: &d.workers[worker].scratch, Pool: d.pool,
	}
	// The tile window to copy out, in tile-local reduced coordinates.
	lx0, ly0 := max(win.X0-te.ox, 0), max(win.Y0-te.oy, 0)
	lx1, ly1 := min(win.X1-te.ox, te.rtw), min(win.Y1-te.oy, te.rth)
	ox, oy := te.ox+lx0-win.X0, te.oy+ly0-win.Y0
	dst := d.cur.dst[ci]
	outShift := d.cur.outShift
	if p.Kernel == dwt.Rev53 {
		cd.plane = reuseImage(cd.plane, te.rtw, te.rth)
		for _, s := range cd.slots {
			b := te.subbands[s.bi]
			w := s.rect.X1 - s.rect.X0
			for y := s.rect.Y0; y < s.rect.Y1; y++ {
				copy(cd.plane.Pix[(b.Y0+y)*cd.plane.Stride+b.X0+s.rect.X0:(b.Y0+y)*cd.plane.Stride+b.X0+s.rect.X1],
					s.vals[(y-s.rect.Y0)*w:(y-s.rect.Y0+1)*w])
			}
		}
		dwt.Inverse53(cd.plane, d.cur.keep, st)
		for y := ly0; y < ly1; y++ {
			src := cd.plane.Row(y)[lx0:lx1]
			o := (oy+y-ly0)*dst.Stride + ox
			drow := dst.Pix[o : o+lx1-lx0]
			for x, v := range src {
				drow[x] = v + outShift
			}
		}
	} else {
		cd.fplane = reuseFPlane(cd.fplane, te.rtw, te.rth)
		fp := cd.fplane
		for _, s := range cd.slots {
			b := te.subbands[s.bi]
			w := s.rect.X1 - s.rect.X0
			sub := dwt.Subband{X0: b.X0 + s.rect.X0, Y0: b.Y0 + s.rect.Y0, X1: b.X0 + s.rect.X1, Y1: b.Y0 + s.rect.Y1}
			quant.Inverse(s.vals, w, sub, p.Steps[ci][s.bi].Value(), fp.Data, fp.Stride, 1)
		}
		dwt.Inverse97(fp, d.cur.keep, st)
		for y := ly0; y < ly1; y++ {
			src := fp.Data[y*fp.Stride+lx0 : y*fp.Stride+lx1]
			o := (oy+y-ly0)*dst.Stride + ox
			drow := dst.Pix[o : o+lx1-lx0]
			for x, v := range src {
				drow[x] = roundShift(v, outShift)
			}
		}
	}
}

// roundShift rounds a 9/7 output coefficient half away from zero and adds
// the level shift (>= 0), without a branch. The rounded value is clamped so
// the sum stays inside int32: a hostile stream can drive |v| past 2^31, where
// converting to int32 is implementation-defined (amd64 yields MinInt32, so a
// saturated white sample would render black). In range, the result is
// exactly int32(v±0.5) + shift.
func roundShift(v float64, shift int32) int32 {
	r := v + math.Copysign(0.5, v)
	r = min(max(r, math.MinInt32), float64(math.MaxInt32-shift))
	return int32(r) + shift
}

// scanned is a parsed codestream container, the input of the decode route:
// the header parameters, one tile-part body span per tile of the grid (a
// negative Off marks a tile-part a resilient scan could not locate), what that
// scan salvaged around, and how long the scan took (zero for an index's). The
// route only reads spans: on the indexed route they are the t2.Index's own
// slice, shared by every concurrent decode of the image.
type scanned struct {
	p     t2.Params
	spans []t2.TileSpan
	cdmg  t2.ContainerDamage
	parse time.Duration
}

// scan parses src's main header and tile-part chain for the scanning entry
// points: strictly, or resilient — salvaging the chain (Psot re-bounding,
// marker resync) without reading any body, so an unreadable body later
// degrades its one tile instead of failing the decode up front.
func scan(src *t2.Source, resilient bool) (scanned, error) {
	t0 := time.Now()
	var cs scanned
	var err error
	if resilient {
		cs.p, cs.spans, cs.cdmg, err = t2.ScanCodestreamResilient(src)
	} else {
		cs.p, cs.spans, err = t2.ScanCodestream(src)
	}
	if err != nil {
		return scanned{}, err
	}
	// Even a resilient decode needs a viable geometry: without it there is
	// no image to degrade toward.
	if err := cs.p.CheckGeometry(); err != nil {
		return scanned{}, err
	}
	ntx, nty := cs.p.NumTiles()
	if n := ntx * nty; len(cs.spans) != n {
		if !resilient {
			return scanned{}, fmt.Errorf("jp2k: %d tile-parts for a %dx%d tile grid", len(cs.spans), ntx, nty)
		}
		// Salvage: a negative-offset sentinel stands in for each missing
		// tile-part (it decodes as an empty gray tile), surplus ones are
		// dropped.
		if len(cs.spans) < n {
			cs.cdmg.Truncated = true
			for len(cs.spans) < n {
				cs.spans = append(cs.spans, t2.TileSpan{Off: -1})
			}
		} else {
			cs.cdmg.BadTileParts += len(cs.spans) - n
			cs.spans = cs.spans[:n]
		}
	}
	cs.parse = time.Since(t0)
	return cs, nil
}

// decodeSource is the scanning entry points' route: scan src, then decode it.
func (d *Decoder) decodeSource(src *t2.Source, opts DecodeOptions, region *Rect) (*raster.Planar, error) {
	cs, err := scan(src, opts.Resilient)
	if err != nil {
		d.damage, d.stats = nil, DecodeStats{}
		return nil, err
	}
	return d.decode(src, &cs, opts, region)
}

// decode is the one decode route: the selected tiles of an already-scanned
// codestream, their bodies read from src.
func (d *Decoder) decode(src *t2.Source, cs *scanned, opts DecodeOptions, region *Rect) (*raster.Planar, error) {
	// The task parameters alias the caller's source and the result; drop them
	// on the way out so a pooled Decoder pins neither between calls.
	defer func() { d.cur.src, d.cur.spans, d.cur.dst = nil, nil, nil }()
	d.damage = nil
	d.stats = DecodeStats{}
	d.stats.Timings.Parse = cs.parse
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, err
	}
	p, spans := cs.p, cs.spans
	ncomp := p.Components()
	nlayers := p.Layers
	if opts.MaxLayers > 0 && opts.MaxLayers < nlayers {
		nlayers = opts.MaxLayers
	}
	discard := opts.DiscardLevels
	if discard < 0 {
		discard = 0
	}
	if discard > p.Levels {
		discard = p.Levels
	}
	keepLevels := p.Levels - discard

	ntx, nty := p.NumTiles()

	// Reduced tile geometry: per-column widths and per-row heights, plus
	// prefix-sum origins in the reduced image.
	d.colW, d.rowH = tileGridInto(d.colW, d.rowH, p, discard)
	colW, rowH := d.colW, d.rowH

	// Window selection: the requested rectangle (clamped) and the tiles it
	// intersects. A nil region decodes everything.
	full := Rect{X1: colW[ntx], Y1: rowH[nty]}
	win := full
	if region != nil {
		win = region.Intersect(full)
		if win.Empty() {
			return nil, fmt.Errorf("jp2k: region %+v outside image %dx%d", *region, full.X1, full.Y1)
		}
	}
	sel := d.sel[:0]
	for ty := 0; ty < nty; ty++ {
		if rowH[ty+1] <= win.Y0 || rowH[ty] >= win.Y1 {
			continue
		}
		for tx := 0; tx < ntx; tx++ {
			if colW[tx+1] <= win.X0 || colW[tx] >= win.X1 {
				continue
			}
			sel = append(sel, ty*ntx+tx)
		}
	}
	d.sel = sel
	nsel := len(sel)

	out := raster.NewPlanar(win.Dx(), win.Dy(), ncomp)

	// Worker split, as in Encoder: the tier-2 packet walk parallelizes over
	// selected tiles; assembly + inverse transform over the tile x component
	// units.
	workers := core.Workers(opts.Workers)
	outerW := min(workers, max(nsel, 1))
	nunits := nsel * ncomp
	outerA := min(workers, max(nunits, 1))
	innerW := workers / outerA
	if innerW < 1 {
		innerW = 1
	}
	for len(d.tiles) < nsel {
		d.tiles = append(d.tiles, &tileDec{})
	}
	d.tileErrs = grow(d.tileErrs, nsel)
	tileErrs := d.tileErrs
	clear(tileErrs)
	d.tileDmg = grow(d.tileDmg, nsel)
	clear(d.tileDmg)
	d.tileIOFail = grow(d.tileIOFail, nsel)
	clear(d.tileIOFail)

	// --- Tier-2: walk each selected tile's packet headers (all components,
	// LRCP-interleaved) and accumulate the code-block segments, in parallel
	// across tiles with pooled per-tile coding state.
	d.cur.p = p
	d.cur.modes = p.CoderModes()
	d.cur.src = src
	d.cur.spans = spans
	d.cur.win = win
	d.cur.ncomp = ncomp
	d.cur.nlayers = nlayers
	d.cur.discard = discard
	d.cur.keep = keepLevels
	d.cur.ntx = ntx
	d.cur.innerW = innerW
	d.cur.opts = opts
	tT2 := time.Now()
	d.pool.TasksIDMax(outerW, nsel, d.walkFn)
	d.stats.Timings.Tier2 = time.Since(tT2)
	for _, err := range tileErrs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, err
	}

	// --- Tier-1: every kept block of every selected tile component, decoded
	// in parallel under the staggered round-robin assignment with per-worker
	// pooled BlockDecoders ("no synchronization is necessary due to the
	// processing of independent code-blocks").
	jobs := d.jobs[:0]
	for si := 0; si < nsel; si++ {
		for ci := 0; ci < ncomp; ci++ {
			for bs := range d.tiles[si].comps[ci].slots {
				jobs = append(jobs, decJob{ti: si, ci: ci, si: bs})
			}
		}
	}
	d.jobs = jobs
	njobs := len(jobs)
	d.ensureWorkers(min(workers, max(njobs, nunits, 1)))
	for _, w := range d.workers {
		w.bd.Release()
	}
	d.blockErrs = grow(d.blockErrs, njobs)
	blockErrs := d.blockErrs
	clear(blockErrs)
	d.blockStats = grow(d.blockStats, njobs)
	clear(d.blockStats)
	tT1 := time.Now()
	d.pool.TasksIDMax(workers, njobs, d.blockFn)
	d.stats.Timings.Tier1 = time.Since(tT1)
	for i, err := range blockErrs {
		if err != nil {
			return nil, fmt.Errorf("jp2k: tile %d component %d block %d: %w",
				sel[jobs[i].ti], jobs[i].ci, jobs[i].si, err)
		}
	}
	if opts.Resilient {
		// Aggregate the damage report after both parallel stages are done, so
		// the accounting never races the workers.
		rep := &DamageReport{Container: cs.cdmg}
		perTile := make([]TileDamage, nsel)
		for si := 0; si < nsel; si++ {
			dm := d.tileDmg[si]
			perTile[si] = TileDamage{
				Tile: sel[si], BadPackets: dm.BadPackets,
				PacketsResynced: dm.PacketsResynced, PacketsLost: dm.PacketsLost,
			}
			if d.tileIOFail[si] {
				perTile[si].IOUnreadable = 1
			}
		}
		for i, st := range d.blockStats[:njobs] {
			if st.Concealed {
				perTile[jobs[i].ti].BlocksConcealed++
				perTile[jobs[i].ti].PassesDropped += st.DroppedPasses
			}
		}
		for _, td := range perTile {
			if td.Any() {
				rep.Tiles = append(rep.Tiles, td)
			}
		}
		d.damage = rep
	}
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, err
	}

	// --- Assembly + inverse transform per (selected tile, component) unit,
	// parallel across units; the kept bands exactly tile the reduced
	// coefficient plane, so the pooled planes need no clearing. For MCT
	// streams the level shift is folded into the post-transform pass below
	// instead of being added here only to be subtracted again.
	shift := int32(1) << uint(p.BitDepth-1)
	mctActive := p.MCT && ncomp == 3
	outShift := shift
	if mctActive {
		outShift = 0
	}
	d.cur.dst = out.Comps
	d.cur.outShift = outShift
	tAsm := time.Now()
	d.pool.TasksIDMax(outerA, nunits, d.asmFn)
	d.stats.Timings.Assemble = time.Since(tAsm)

	// --- Inverse inter-component transform, when the stream flags MCT: the
	// decoded planes hold Y/Cb/Cr (assembled without the level shift); rotate
	// back to RGB (the rotation operates on the rounded integer samples) and
	// apply the shift once.
	if mctActive {
		tMCT := time.Now()
		comps := out.Comps
		if p.Kernel == dwt.Rev53 {
			if err := mct.InverseRCT(comps[0], comps[1], comps[2], workers, d.pool); err != nil {
				return nil, err
			}
		} else {
			rotateICT(comps, &d.mctFloats, workers, d.pool, mct.InverseICT)
		}
		for _, c := range comps {
			pix := c.Pix
			d.pool.ForMax(workers, len(pix), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					pix[i] += shift
				}
			})
		}
		d.stats.Timings.InterComp = time.Since(tMCT)
	}
	for _, ti := range sel {
		if sp := spans[ti]; sp.Off >= 0 { // a missing tile-part's sentinel fetched nothing
			d.stats.BytesIn += int(sp.Len)
		}
	}
	d.stats.Tiles = nsel
	d.stats.CodeBlocks = njobs
	d.Metrics.recordDecode(&d.stats)
	return out, nil
}

// reuseFPlane returns a float plane of the requested size backed by p's
// storage when it fits.
func reuseFPlane(p *dwt.FPlane, w, h int) *dwt.FPlane {
	if p == nil || cap(p.Data) < w*h {
		return dwt.NewFPlane(w, h)
	}
	p.Width, p.Height, p.Stride = w, h, w
	p.Data = p.Data[:w*h]
	return p
}
