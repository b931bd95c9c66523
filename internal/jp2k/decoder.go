package jp2k

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"pj2k/internal/core"
	"pj2k/internal/dwt"
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
// and per-component coefficient planes. Server workloads hold one Decoder per
// concurrent stream (or a sync.Pool of them) and decode windows out of large
// codestreams without ever reconstructing the full image.
//
// The pooled state is shape-agnostic: it grows to the largest decode the
// Decoder has run and reshapes in place for any other (DESIGN.md §7). A warm
// decode — one whose selected tiles, code-blocks and planes are no larger than
// earlier decodes', whatever their component count, kernel, tiling or levels —
// allocates nothing per tile, band or block, whatever the entry point: the
// scanning entry points scan into the Decoder's pooled container scan (header
// parameters, tile-part spans, read window) and Decode reads its bytes
// through a pooled Source. DecodeRegion then allocates nothing at all: its
// result is the Decoder's own output image, reshaped in place, valid until
// the Decoder's next decode or Close. The scanning entry points return a
// fresh caller-owned image, in four blocks (raster.NewPlanar: the Planar, its
// component list, its headers and the samples). A resilient decode also
// allocates its DamageReport.
//
// Multi-component codestreams decode natively: the packet walk de-interleaves
// per-component packets per tile, tier-1 runs over every kept (tile,
// component, block) job, writing each block into its (tile, component)
// coefficient plane, and the inverse transform parallelizes over the tile x
// component grid; the inverse inter-component transform is applied when the
// stream's COD marker flags MCT.
//
// Every entry point (Decode here; the Source forms in stream.go) is a thin
// adapter over the one decode route: from a scanned codestream's tile spans,
// walk the selected tiles' packets, tier-1 into the planes, inverse transform.
// DecodeRegion takes the scan from a t2.Index; the others scan the Source
// first. A Decoder is not safe for concurrent use; pooled state does not leak
// between calls (output is bit-identical to a throwaway Decoder's for any
// worker count, and a region decode is bit-identical to cropping a full one).
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
	perTile    []TileDamage      // per selected tile (resilient decodes)
	colW, rowH []int
	sel        []int
	mctFloats  [][]float64 // pooled float planes for the inverse ICT

	// The scanning entry points' container scan, reshaped in place per call,
	// and Decode's source over its resident bytes.
	scanner t2.Scanner
	cs      scanned
	rd      bytes.Reader
	bsrc    t2.Source

	// DecodeRegion's result, reshaped in place per call.
	out raster.Planar

	// Dispatch funcs bound once at construction, so the hot TasksIDMax call
	// sites pass a stored func instead of allocating a fresh closure per
	// decode; the per-call parameters travel through cur.
	walkFn  func(worker, si int)
	blockFn func(worker, i int)
	asmFn   func(worker, u int)
	mctFn   func(worker, lo, hi int)
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
		shift    int32 // level shift the MCT pass adds
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
}

// decJob addresses one kept block: selected-tile slot x component x block
// slot.
type decJob struct {
	ti, ci, si int
}

// compDec is the pooled per-(tile, component) decode state.
type compDec struct {
	dec    []t2.DecodedBlock
	slots  []decSlot
	plane  *raster.Image // 5/3 coefficient plane
	fplane *dwt.FPlane   // 9/7 coefficient plane
}

// tileDec is the pooled per-tile decode state: the tile's layout (its size,
// subbands and per-component band geometry, rebuilt in place by
// t2.TileLayout.Reshape), its placement in the reduced image, and one compDec
// per component.
type tileDec struct {
	body     []byte // pooled read buffer for the tile-part body
	layout   t2.TileLayout
	rtw, rth int // reduced dims
	ox, oy   int // origin in the reduced image
	comps    []compDec
	decV     [][]t2.DecodedBlock // per-component views for the packet walk
	tc       *t2.TileCoder
}

func newDecoder(p *core.Pool, own bool) *Decoder {
	d := &Decoder{pool: p, ownPool: own}
	d.walkFn = d.walkTask
	d.blockFn = d.blockTask
	d.asmFn = d.asmTask
	d.mctFn = d.mctTask
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
		d.workers = append(d.workers, new(decWorker))
	}
}

// Decode reconstructs the full image from a resident single-component
// codestream. With DiscardLevels > 0 the result is the 1/2^n-scale image
// carried by the lower resolutions of the stream. The returned image is
// freshly allocated and caller-owned. Multi-component streams are an error,
// reported before any tier-1 work; use DecodePlanarSource.
func (d *Decoder) Decode(data []byte, opts DecodeOptions) (*raster.Image, error) {
	// The pooled source over data: NewSource inlines, so the copy allocates
	// nothing. Reset drops data once the decode is done.
	d.rd.Reset(data)
	d.bsrc = *t2.NewSource(&d.rd, int64(len(data)))
	defer d.rd.Reset(nil)
	err := d.scan(&d.bsrc, opts.Resilient)
	if err == nil && d.cs.p.Components() != 1 {
		err = fmt.Errorf("jp2k: %d-component stream; use DecodePlanarSource or DecodeRegion", d.cs.p.Components())
	}
	if err != nil {
		d.damage, d.stats = nil, DecodeStats{}
		return nil, err
	}
	pl, err := d.decode(&d.bsrc, &d.cs, opts, nil, nil)
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
			d.tileErrs[si] = &tileIOError{Tile: ti, Off: sp.Off, Len: sp.Len, Err: err}
			return
		default:
			// The body is unreadable after whatever retries the source
			// performed: conceal the whole tile and record the IO damage
			// class — unreadable bytes degrade, they do not abort.
			d.tileIOFail[si] = true
		}
	}
	// The tile's band and code-block geometry, rebuilt in place: a slot that
	// served another shape last keeps its storage.
	lay := &te.layout
	lay.Reshape(p, ti)
	te.rtw, te.rth = reduceDim(lay.W, discard), reduceDim(lay.H, discard)
	te.ox, te.oy = d.colW[tx], d.rowH[ty]
	te.comps = grow(te.comps, ncomp)
	te.decV = grow(te.decV, ncomp)
	for ci := range te.decV {
		te.decV[ci] = te.comps[ci].dec
	}
	if te.tc == nil {
		te.tc = t2.NewTileCoderComps(lay.Comps)
	}
	te.tc.SOP, te.tc.EPH = p.UseSOP, p.UseEPH
	te.tc.Modes = d.cur.modes
	var decV [][]t2.DecodedBlock
	if d.cur.opts.Resilient {
		decV, _, d.tileDmg[si] = te.tc.DecodeTileCompsPacketsResilient(
			lay.Comps, p.Levels, nlayers, data, te.decV)
	} else {
		var err error
		decV, _, err = te.tc.DecodeTileCompsPackets(lay.Comps, p.Levels, nlayers, data, te.decV)
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
		for bi, b := range lay.Comps[ci] {
			keep := bi == 0 || lay.Subbands[bi].Level > discard
			for _, r := range b.Grid.Rects {
				if keep {
					cd.slots = append(cd.slots, decSlot{bi: bi, rect: r, id: id})
				}
				id++
			}
		}
		// Size the unit's plane before tier-1 writes into it; the kept
		// blocks exactly tile it, so a pooled plane needs no clearing.
		if p.Kernel == dwt.Rev53 {
			cd.plane = reuseImage(cd.plane, te.rtw, te.rth)
		} else {
			cd.fplane = reuseFPlane(cd.fplane, te.rtw, te.rth)
		}
	}
}

// blockTask entropy-decodes one kept code-block on the dispatching worker's
// pooled BlockDecoder, straight into its rectangle of the unit's coefficient
// plane (dequantized for 9/7, MAXSHIFT undone under ROI). Blocks are disjoint
// rectangles, so concurrent tasks write disjoint samples.
func (d *Decoder) blockTask(worker, i int) {
	p := &d.cur.p
	j := d.jobs[i]
	te := d.tiles[j.ti]
	cd := &te.comps[j.ci]
	s := &cd.slots[j.si]
	blk := &cd.dec[s.id]
	b := te.layout.Subbands[s.bi]
	dst := t1.Dest{ROIShift: p.ROIShift}
	if p.Kernel == dwt.Rev53 {
		dst.Int, dst.Stride = cd.plane.Pix, cd.plane.Stride
	} else {
		dst.Float, dst.Stride, dst.Step = cd.fplane.Data, cd.fplane.Stride, p.Steps[j.ci][s.bi].Value()
	}
	dst.Off = (b.Y0+s.rect.Y0)*dst.Stride + b.X0 + s.rect.X0
	// The coder modes travel from COD into each block decode; segmentation
	// symbols (when the stream carries them) are verified in strict mode too —
	// a symbol-carrying stream is self-checking — and drive concealment in
	// resilient mode.
	in := t1.BlockIn{
		W: s.rect.X1 - s.rect.X0, H: s.rect.Y1 - s.rect.Y0,
		Band:         b.Type,
		NumBitplanes: blk.NumBitplanes,
		Data:         blk.Data,
		NPasses:      blk.Passes,
		Modes:        d.cur.modes,
		SegEnds:      blk.SegmentEnds(d.cur.modes),
	}
	d.blockStats[i], d.blockErrs[i] = d.workers[worker].bd.DecodeInto(&in, &dst, d.cur.opts.Resilient)
}

// asmTask runs the inverse transform over one (selected tile, component)
// unit's coefficient plane, which tier-1 filled, and copies the window into
// the output.
func (d *Decoder) asmTask(worker, u int) {
	p := &d.cur.p
	ncomp, win, opts := d.cur.ncomp, d.cur.win, &d.cur.opts
	te := d.tiles[u/ncomp]
	ci := u % ncomp
	cd := &te.comps[ci]
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
		fp := cd.fplane
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

// mctTask rotates rows [lo, hi) of the output planes back to RGB and adds
// the level shift — the body of the inverse inter-component dispatch.
func (d *Decoder) mctTask(_, lo, hi int) {
	comps, shift := d.cur.dst, d.cur.shift
	interComp(comps, d.mctFloats, d.cur.p.Kernel, false, lo, hi)
	for _, c := range comps {
		for y := lo; y < hi; y++ {
			row := c.Row(y)
			for x := range row {
				row[x] += shift
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

// scan parses src's main header and tile-part chain into d.cs for the
// scanning entry points, on the Decoder's pooled Scanner: strictly, or
// resilient — salvaging the chain (Psot re-bounding, marker resync) without
// reading any body, so an unreadable body later degrades its one tile instead
// of failing the decode up front.
func (d *Decoder) scan(src *t2.Source, resilient bool) error {
	t0 := time.Now()
	cs := &d.cs
	var err error
	cs.p, cs.spans, cs.cdmg, err = d.scanner.Scan(src, resilient)
	if err != nil {
		return err
	}
	// Even a resilient decode needs a viable geometry: without it there is
	// no image to degrade toward.
	if err := cs.p.CheckGeometry(); err != nil {
		return err
	}
	ntx, nty := cs.p.NumTiles()
	if n := ntx * nty; len(cs.spans) != n {
		if !resilient {
			return fmt.Errorf("jp2k: %d tile-parts for a %dx%d tile grid", len(cs.spans), ntx, nty)
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
	return nil
}

// decodeSource is the scanning entry points' route: scan src, then decode it.
func (d *Decoder) decodeSource(src *t2.Source, opts DecodeOptions, region *Rect) (*raster.Planar, error) {
	if err := d.scan(src, opts.Resilient); err != nil {
		d.damage, d.stats = nil, DecodeStats{}
		return nil, err
	}
	return d.decode(src, &d.cs, opts, region, nil)
}

// decode is the one decode route: the selected tiles of an already-scanned
// codestream, their bodies read from src, into out, which it reshapes to the
// window and returns (a nil out is a fresh raster.NewPlanar). Every sample of
// out is written (asmTask, then the MCT pass), so a recycled out needs no
// clearing.
func (d *Decoder) decode(src *t2.Source, cs *scanned, opts DecodeOptions, region *Rect, out *raster.Planar) (*raster.Planar, error) {
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

	if out == nil {
		out = raster.NewPlanar(win.Dx(), win.Dy(), ncomp)
	} else {
		out.Reshape(win.Dx(), win.Dy(), ncomp)
	}

	// Worker split, as in Encoder: the tier-2 packet walk parallelizes over
	// selected tiles; the inverse transform over the tile x component
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
	// pooled BlockDecoders into its own rectangle of the unit's plane ("no
	// synchronization is necessary due to the processing of independent
	// code-blocks").
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
		d.perTile = grow(d.perTile, nsel)
		perTile := d.perTile
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
			if td.damaged() {
				rep.Tiles = append(rep.Tiles, td)
			}
		}
		d.damage = rep
	}
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, err
	}

	// --- Inverse transform per (selected tile, component) unit over the
	// plane tier-1 filled, parallel across units. For MCT streams the level
	// shift is folded into the post-transform pass below instead of being
	// added here only to be subtracted again.
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
	// apply the shift once, in one pass over the rows.
	if mctActive {
		tMCT := time.Now()
		if p.Kernel == dwt.Irr97 {
			d.mctFloats = fitFloats(d.mctFloats, win.Dx()*win.Dy())
		}
		d.cur.shift = shift
		d.pool.ForIDMax(workers, win.Dy(), d.mctFn)
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
