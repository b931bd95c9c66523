package main

import (
	"fmt"
	"io"

	"pj2k/internal/core"
	"pj2k/internal/dwt"
	"pj2k/internal/jp2k"
	"pj2k/internal/mct"
	"pj2k/internal/quant"
	"pj2k/internal/raster"
	"pj2k/internal/rate"
	"pj2k/internal/t1"
	"pj2k/internal/t2"
)

// replayer re-runs an operation's data through the public functions of each
// layer, one stage at a time, recording a timed span per stage. It is the
// outside-in instrument of the traced run: nothing under internal/ is
// edited, the spans bracket the calls a codec operation makes into mct, dwt,
// quant, t1, rate and t2, in the order the codec makes them. Every stage
// runs on one worker, so a span's duration is the layer's own cost.
type replayer struct {
	tr      *tracer
	coder   *t1.Coder
	bd      *t1.BlockDecoder
	scratch *dwt.Scratch
	alloc   rate.Allocator
	dec     *jp2k.Decoder // tile decodes of served requests
	pool    *core.Pool
	windows map[[3]int]*raster.Planar // PNM-write inputs by (w, h, ncomp)
}

func newReplayer(tr *tracer) *replayer {
	pool := core.NewPool(1)
	return &replayer{
		tr: tr, coder: t1.NewCoder(), bd: t1.NewBlockDecoder(), scratch: dwt.NewScratch(1),
		dec: jp2k.NewDecoderWithPool(pool), pool: pool, windows: map[[3]int]*raster.Planar{},
	}
}

func (r *replayer) close() {
	r.dec.Close()
	r.pool.Close()
}

// encUnit is one (component, tile) of an encode replay.
type encUnit struct {
	plane    *raster.Image
	fp       *dwt.FPlane
	subbands []dwt.Subband
	grids    []t2.Grid
	bandInts [][]int32
	jobs     []quant.BandJob
}

// encode replays one encode of it: inter-component transform, forward DWT,
// quantization, tier-1 coding of every code-block and PCRD rate allocation,
// each stage over all tiles before the next, as the encoder runs them.
func (r *replayer) encode(parent, op int, it *item) {
	o := it.opts
	if o.BitDepth == 0 {
		o.BitDepth = 8
	}
	const levels, cbw, cbh, baseStep = 5, 64, 64, 1.0 / 512
	ncomp, w, h := it.pl.NComp(), it.pl.Width(), it.pl.Height()
	mpix := float64(w*h) / 1e6
	shift := int32(1) << uint(o.BitDepth-1)
	work := make([]*raster.Image, ncomp)
	for ci, c := range it.pl.Comps {
		work[ci] = c.Clone()
		for i := range work[ci].Pix {
			work[ci].Pix[i] -= shift
		}
	}
	if o.MCT {
		id := r.tr.begin(parent, op, "mct.fwd")
		if o.Kernel == dwt.Rev53 {
			_ = mct.ForwardRCT(work[0], work[1], work[2], 1, r.pool) // sizes agree by construction
		} else {
			rotate(work, mct.ForwardICT, r.pool)
		}
		r.tr.end(id, func(s *span) { s.Mpix = mpix })
	}

	tw, th := o.TileW, o.TileH
	if tw <= 0 || th <= 0 {
		tw, th = w, h
	}
	var units []*encUnit
	for _, src := range work {
		for y0 := 0; y0 < h; y0 += th {
			for x0 := 0; x0 < w; x0 += tw {
				x1, y1 := min(x0+tw, w), min(y0+th, h)
				u := &encUnit{plane: raster.New(x1-x0, y1-y0)}
				for y := y0; y < y1; y++ {
					copy(u.plane.Row(y-y0), src.Row(y)[x0:x1])
				}
				u.subbands = dwt.Subbands(u.plane.Width, u.plane.Height, levels)
				for _, b := range u.subbands {
					u.grids = append(u.grids, t2.MakeGrid(b, cbw, cbh))
				}
				units = append(units, u)
			}
		}
	}
	unitsMpix := mpix * float64(ncomp)

	st := dwt.Strategy{VertMode: o.VertMode, BlockWidth: o.VertBlockWidth, Workers: 1, Scratch: r.scratch, Pool: r.pool}
	var tm dwt.Timings
	add := func(t dwt.Timings) { tm.Horizontal += t.Horizontal; tm.Vertical += t.Vertical }
	if o.Kernel == dwt.Rev53 {
		id := r.tr.begin(parent, op, "dwt.fwd53")
		for _, u := range units {
			add(dwt.Forward53Timed(u.plane, levels, st))
		}
		r.tr.end(id, func(s *span) { s.Mpix, s.VertNS, s.HorizNS = unitsMpix, int64(tm.Vertical), int64(tm.Horizontal) })
	} else {
		for _, u := range units {
			u.fp = dwt.FromImage(u.plane)
		}
		id := r.tr.begin(parent, op, "dwt.fwd97")
		for _, u := range units {
			add(dwt.Forward97Timed(u.fp, levels, st))
		}
		r.tr.end(id, func(s *span) { s.Mpix, s.VertNS, s.HorizNS = unitsMpix, int64(tm.Vertical), int64(tm.Horizontal) })

		steps := quant.BandSteps(dwt.Irr97, w, h, levels, baseStep)
		for _, u := range units {
			u.bandInts = make([][]int32, len(u.subbands))
			for bi, b := range u.subbands {
				if b.Empty() {
					continue
				}
				u.bandInts[bi] = make([]int32, b.Width()*b.Height())
				u.jobs = append(u.jobs, quant.BandJob{Band: b, Step: steps[bi].Value(), Dst: u.bandInts[bi], DstStride: b.Width()})
			}
		}
		id = r.tr.begin(parent, op, "quant.fwd")
		for _, u := range units {
			quant.ForwardBands(u.fp.Data, u.fp.Stride, u.jobs, 1, r.pool)
		}
		r.tr.end(id, func(s *span) { s.Mpix = unitsMpix })
	}

	// Tier-1: every code-block of every unit on one pooled coder.
	modes := t1.Modes{
		Bypass: o.Coder.Bypass, ResetCtx: o.Coder.ResetCtx, TermAll: o.Coder.TermAll,
		Causal: o.Coder.Causal, SegSym: o.Resilience.SegSymbols,
	}
	r.coder.Release()
	r.coder.Modes = modes
	name := "t1.enc"
	if modes.Bypass {
		name = "t1.enc.bypass"
	}
	type coded struct {
		eb *t1.EncodedBlock
		bi int
	}
	perComp := make([][]coded, ncomp)
	unitsPerComp := len(units) / ncomp
	var passes, bytes int64
	id := r.tr.begin(parent, op, name)
	for ui, u := range units {
		for bi, b := range u.subbands {
			for _, rc := range u.grids[bi].Rects {
				var eb *t1.EncodedBlock
				if o.Kernel == dwt.Rev53 {
					off := (b.Y0+rc.Y0)*u.plane.Stride + b.X0 + rc.X0
					eb = r.coder.Encode(u.plane.Pix[off:], rc.X1-rc.X0, rc.Y1-rc.Y0, u.plane.Stride, b.Type)
				} else {
					eb = r.coder.Encode(u.bandInts[bi][rc.Y0*b.Width()+rc.X0:], rc.X1-rc.X0, rc.Y1-rc.Y0, b.Width(), b.Type)
				}
				passes += int64(len(eb.Passes))
				bytes += int64(len(eb.Data))
				perComp[ui/unitsPerComp] = append(perComp[ui/unitsPerComp], coded{eb, bi})
			}
		}
	}
	nblocks := 0
	for _, c := range perComp {
		nblocks += len(c)
	}
	r.tr.end(id, func(s *span) { s.N, s.Passes, s.Bytes, s.Mpix = int64(nblocks), passes, bytes, unitsMpix })

	if len(o.LayerBPP) == 0 {
		return // a single layer carries every pass: the encoder runs no PCRD
	}
	// Rate allocation, per component, with the encoder's weights, budget
	// split and header estimate.
	bands := dwt.Subbands(w, h, levels)
	steps := quant.BandSteps(dwt.Irr97, w, h, levels, baseStep)
	weights := make([]float64, len(bands))
	for bi, b := range bands {
		s := 1.0
		if o.Kernel == dwt.Irr97 {
			s = steps[bi].Value()
		}
		n := dwt.BandNorm(o.Kernel, levels, b)
		weights[bi] = s * s * n * n
	}
	rblocks := make([][]rate.BlockPasses, ncomp)
	budgets := make([][]int, ncomp)
	for ci, blocks := range perComp {
		for _, c := range blocks {
			bp := rate.BlockPasses{Rates: make([]int, len(c.eb.Passes)), Dist: make([]float64, len(c.eb.Passes))}
			for pi, p := range c.eb.Passes {
				bp.Rates[pi], bp.Dist[pi] = p.Rate, p.DistDelta*weights[c.bi]
			}
			rblocks[ci] = append(rblocks[ci], bp)
		}
		share := 1.0
		if ncomp > 1 {
			share = 1 / float64(ncomp)
			if o.MCT {
				share = 0.15
				if ci == 0 {
					share = 0.70
				}
			}
		}
		headerEst := 70 + unitsPerComp*(14+len(o.LayerBPP)*(levels+1))
		for _, bpp := range o.LayerBPP {
			budgets[ci] = append(budgets[ci], max(int(bpp*share*float64(w*h)/8)-headerEst, 0))
		}
	}
	id = r.tr.begin(parent, op, "rate.alloc")
	for ci := range rblocks {
		r.alloc.Allocate(rblocks[ci], budgets[ci])
	}
	r.tr.end(id, func(s *span) { s.N = int64(nblocks) })
}

// rotate applies an irreversible colour rotation to three integer planes the
// way the codec does: float copies, the rotation, round half away from zero.
func rotate(planes []*raster.Image, fn func(a, b, c []float64, workers int, pool *core.Pool), pool *core.Pool) {
	var fl [3][]float64
	for ci, im := range planes[:3] {
		fl[ci] = make([]float64, im.Width*im.Height)
		for y := 0; y < im.Height; y++ {
			for x, v := range im.Row(y) {
				fl[ci][y*im.Width+x] = float64(v)
			}
		}
	}
	fn(fl[0], fl[1], fl[2], 1, pool)
	for ci, im := range planes[:3] {
		for y := 0; y < im.Height; y++ {
			row := im.Row(y)
			for x := range row {
				v := fl[ci][y*im.Width+x]
				if v >= 0 {
					row[x] = int32(v + 0.5)
				} else {
					row[x] = int32(v - 0.5)
				}
			}
		}
	}
}

// decSlot is one kept code-block of a decode replay.
type decSlot struct {
	bi   int
	rect t2.CBRect
	vals []int32
}

// decTile is one tile of a decode replay.
type decTile struct {
	subbands []dwt.Subband
	ox, oy   int // origin in the reduced image
	rtw, rth int
	dec      [][]t2.DecodedBlock
	bands    [][]t2.BandBlocks
	slots    [][]decSlot // per component
	planes   []*raster.Image
	fplanes  []*dwt.FPlane
}

// decode replays one full-image decode of cs stage by stage — container scan,
// packet walk, tier-1, dequantization, inverse DWT, inverse inter-component
// transform — and returns the image it reconstructs, which the caller
// compares with the decoder's own.
func (r *replayer) decode(parent, op int, cs []byte, discard, maxLayers int) (*raster.Planar, error) {
	id := r.tr.begin(parent, op, "t2.scan")
	p, spans, err := t2.ScanCodestream(t2.BytesSource(cs))
	r.tr.end(id, func(s *span) { s.N = int64(len(spans)) })
	if err != nil {
		return nil, err
	}
	ncomp := p.Components()
	nlayers := p.Layers
	if maxLayers > 0 && maxLayers < nlayers {
		nlayers = maxLayers
	}
	discard = min(max(discard, 0), p.Levels)
	keep := p.Levels - discard
	ntx, nty := p.NumTiles()
	if len(spans) != ntx*nty {
		return nil, fmt.Errorf("%d tile-parts for a %dx%d grid", len(spans), ntx, nty)
	}
	colW, rowH := jp2k.TileGrid(p, discard)
	out := raster.NewPlanar(colW[ntx], rowH[nty], ncomp)
	outMpix := float64(out.Width()*out.Height()) / 1e6
	modes := p.CoderModes()

	tiles := make([]*decTile, len(spans))
	id = r.tr.begin(parent, op, "t2.pkt_dec")
	for ti, sp := range spans {
		tx, ty := ti%ntx, ti/ntx
		x0, y0 := tx*p.TileW, ty*p.TileH
		tw, th := min(x0+p.TileW, p.Width)-x0, min(y0+p.TileH, p.Height)-y0
		t := &decTile{
			subbands: dwt.Subbands(tw, th, p.Levels), ox: colW[tx], oy: rowH[ty],
			rtw: colW[tx+1] - colW[tx], rth: rowH[ty+1] - rowH[ty],
			bands: make([][]t2.BandBlocks, ncomp),
		}
		for ci := range t.bands {
			t.bands[ci] = make([]t2.BandBlocks, len(t.subbands))
		}
		for bi, b := range t.subbands {
			g := t2.MakeGrid(b, p.CBW, p.CBH)
			for ci := range t.bands {
				t.bands[ci][bi] = t2.BandBlocks{Grid: g, Mb: p.Mb[ci][bi]}
			}
		}
		tc := t2.NewTileCoderComps(t.bands)
		tc.SOP, tc.EPH, tc.Modes = p.UseSOP, p.UseEPH, modes
		t.dec, _, err = tc.DecodeTileCompsPackets(t.bands, p.Levels, nlayers, cs[sp.Off:sp.End()], make([][]t2.DecodedBlock, ncomp))
		if err != nil {
			r.tr.end(id, nil)
			return nil, fmt.Errorf("tile %d: %w", ti, err)
		}
		tiles[ti] = t
	}
	r.tr.end(id, func(s *span) { s.N = int64(len(spans)) })

	r.bd.Release()
	nblocks := 0
	id = r.tr.begin(parent, op, "t1.dec")
	for ti, t := range tiles {
		t.slots = make([][]decSlot, ncomp)
		for ci := 0; ci < ncomp; ci++ {
			bid := 0
			for bi := range t.bands[ci] {
				kept := bi == 0 || t.subbands[bi].Level > discard
				for _, rc := range t.bands[ci][bi].Grid.Rects {
					if kept {
						blk := &t.dec[ci][bid]
						in := t1.BlockIn{
							W: rc.X1 - rc.X0, H: rc.Y1 - rc.Y0, Band: t.subbands[bi].Type,
							NumBitplanes: blk.NumBitplanes, Data: blk.Data, NPasses: blk.Passes,
							Modes: modes, SegEnds: blk.SegmentEnds(modes),
						}
						vals, _, err := r.bd.DecodeBlock(&in, false)
						if err != nil {
							r.tr.end(id, nil)
							return nil, fmt.Errorf("tile %d component %d block %d: %w", ti, ci, bid, err)
						}
						t.slots[ci] = append(t.slots[ci], decSlot{bi, rc, vals})
						nblocks++
					}
					bid++
				}
			}
		}
	}
	r.tr.end(id, func(s *span) { s.N, s.Mpix = int64(nblocks), outMpix*float64(ncomp) })

	st := dwt.Strategy{VertMode: dwt.VertBlocked, Workers: 1, Scratch: r.scratch, Pool: r.pool}
	shift := int32(1) << uint(p.BitDepth-1)
	mctActive := p.MCT && ncomp == 3
	outShift := shift
	if mctActive {
		outShift = 0
	}
	unitsMpix := outMpix * float64(ncomp)
	if p.Kernel == dwt.Rev53 {
		for _, t := range tiles {
			t.planes = make([]*raster.Image, ncomp)
			for ci := range t.planes {
				pl := raster.New(t.rtw, t.rth)
				for _, s := range t.slots[ci] {
					b, w := t.subbands[s.bi], s.rect.X1-s.rect.X0
					for y := s.rect.Y0; y < s.rect.Y1; y++ {
						copy(pl.Row(b.Y0 + y)[b.X0+s.rect.X0:b.X0+s.rect.X1], s.vals[(y-s.rect.Y0)*w:(y-s.rect.Y0+1)*w])
					}
				}
				t.planes[ci] = pl
			}
		}
		id = r.tr.begin(parent, op, "dwt.inv53")
		for _, t := range tiles {
			for _, pl := range t.planes {
				dwt.Inverse53(pl, keep, st)
			}
		}
		r.tr.end(id, func(s *span) { s.Mpix = unitsMpix })
		for _, t := range tiles {
			for ci, pl := range t.planes {
				for y := 0; y < t.rth; y++ {
					dst := out.Comps[ci].Row(t.oy + y)[t.ox : t.ox+t.rtw]
					for x, v := range pl.Row(y) {
						dst[x] = v + outShift
					}
				}
			}
		}
	} else {
		for _, t := range tiles {
			t.fplanes = make([]*dwt.FPlane, ncomp)
			for ci := range t.fplanes {
				t.fplanes[ci] = dwt.NewFPlane(t.rtw, t.rth)
			}
		}
		id = r.tr.begin(parent, op, "quant.inv")
		for _, t := range tiles {
			for ci, fp := range t.fplanes {
				for _, s := range t.slots[ci] {
					b := t.subbands[s.bi]
					sub := dwt.Subband{X0: b.X0 + s.rect.X0, Y0: b.Y0 + s.rect.Y0, X1: b.X0 + s.rect.X1, Y1: b.Y0 + s.rect.Y1}
					quant.Inverse(s.vals, s.rect.X1-s.rect.X0, sub, p.Steps[ci][s.bi].Value(), fp.Data, fp.Stride, 1)
				}
			}
		}
		r.tr.end(id, func(s *span) { s.Mpix = unitsMpix })
		id = r.tr.begin(parent, op, "dwt.inv97")
		for _, t := range tiles {
			for _, fp := range t.fplanes {
				dwt.Inverse97(fp, keep, st)
			}
		}
		r.tr.end(id, func(s *span) { s.Mpix = unitsMpix })
		for _, t := range tiles {
			for ci, fp := range t.fplanes {
				for y := 0; y < t.rth; y++ {
					dst := out.Comps[ci].Row(t.oy + y)[t.ox : t.ox+t.rtw]
					for x, v := range fp.Data[y*fp.Stride : y*fp.Stride+t.rtw] {
						if v >= 0 {
							dst[x] = int32(v+0.5) + outShift
						} else {
							dst[x] = int32(v-0.5) + outShift
						}
					}
				}
			}
		}
	}
	if mctActive {
		id = r.tr.begin(parent, op, "mct.inv")
		if p.Kernel == dwt.Rev53 {
			err = mct.InverseRCT(out.Comps[0], out.Comps[1], out.Comps[2], 1, r.pool)
		} else {
			rotate(out.Comps, mct.InverseICT, r.pool)
		}
		r.tr.end(id, func(s *span) { s.Mpix = outMpix })
		if err != nil {
			return nil, err
		}
		for _, c := range out.Comps {
			for i := range c.Pix {
				c.Pix[i] += shift
			}
		}
	}
	return out, nil
}

// tileDecode replays one tile decode of a served request: the same
// DecodeRegionPlanarSource call, with the same options, that the server
// makes on a cache miss, read through the image's counting reader.
func (r *replayer) tileDecode(parent, op int, img *servedImage, tx, ty, reduce, layers int) error {
	colW, rowH := jp2k.TileGrid(img.params, reduce)
	region := jp2k.Rect{X0: colW[tx], Y0: rowH[ty], X1: colW[tx+1], Y1: rowH[ty+1]}
	io0 := img.counter.snap()
	id := r.tr.begin(parent, op, "jp2k.tile_decode")
	_, err := r.dec.DecodeRegionPlanarSource(img.src, region, jp2k.DecodeOptions{
		DiscardLevels: reduce, MaxLayers: layers, Workers: 1, VertMode: dwt.VertBlocked,
	})
	d := img.counter.snap().sub(io0)
	r.tr.end(id, func(s *span) { s.Reduce, s.Reads, s.Bytes, s.N = reduce, d.reads, d.bytes, 1 })
	return err
}

// pnmWrite replays the response encoding of a w x h window: clamp to 8 bits
// and WritePGM/WritePPM, as the server's handler does.
func (r *replayer) pnmWrite(parent, op, w, h, ncomp int) {
	key := [3]int{w, h, ncomp}
	pl := r.windows[key]
	if pl == nil {
		pl = raster.NewPlanar(w, h, ncomp)
		for ci, c := range pl.Comps {
			for i := range c.Pix {
				c.Pix[i] = int32((i*7 + ci*31) & 0xFF)
			}
		}
		r.windows[key] = pl
	}
	id := r.tr.begin(parent, op, "raster.pnm_write")
	pl.ClampTo8()
	if ncomp == 3 {
		_ = raster.WritePPM(io.Discard, pl, 255) // io.Discard cannot fail
	} else {
		_ = raster.WritePGM(io.Discard, pl.Comps[0], 255)
	}
	r.tr.end(id, func(s *span) { s.Mpix, s.Bytes = float64(w*h)/1e6, int64(w*h*ncomp) })
}
