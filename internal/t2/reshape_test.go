package t2

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/quant"
	"pj2k/internal/t1"
)

// reshapeCase is one tile geometry with synthetic block streams and a layer
// allocation per component.
type reshapeCase struct {
	comps  [][]BandBlocks
	layers [][][]int
	levels int
	sop    bool
	modes  t1.Modes
}

func synthShape(rng *rand.Rand) reshapeCase {
	w, h := 1+rng.Intn(150), 1+rng.Intn(150)
	cbw, cbh := 4<<rng.Intn(4), 4<<rng.Intn(4)
	c := reshapeCase{levels: rng.Intn(4), sop: rng.Intn(2) == 1}
	if rng.Intn(2) == 1 {
		c.modes = t1.Modes{TermAll: true}
	}
	nlayers := 1 + rng.Intn(3)
	ncomp := 1 + 2*rng.Intn(2)
	for ci := 0; ci < ncomp; ci++ {
		var bands []BandBlocks
		nblocks := 0
		for _, b := range dwt.Subbands(w, h, c.levels) {
			g := MakeGrid(b, cbw, cbh)
			bb := BandBlocks{Grid: g, Mb: 12, Blocks: make([]*BlockStream, len(g.Rects))}
			for k := range bb.Blocks {
				bs := &BlockStream{NumBitplanes: 1 + rng.Intn(11)}
				r := 0
				for pi := rng.Intn(8); pi > 0; pi-- {
					r += 1 + rng.Intn(30)
					bs.PassRates = append(bs.PassRates, r)
				}
				bs.Data = make([]byte, r)
				rng.Read(bs.Data)
				bb.Blocks[k] = bs
			}
			nblocks += len(g.Rects)
			bands = append(bands, bb)
		}
		cur := make([]int, nblocks)
		var layers [][]int
		for li := 0; li < nlayers; li++ {
			id := 0
			for _, b := range bands {
				for _, blk := range b.Blocks {
					if n := len(blk.PassRates); n > cur[id] && rng.Intn(2) == 1 {
						cur[id] += rng.Intn(n-cur[id]) + 1
					}
					id++
				}
			}
			layers = append(layers, append([]int(nil), cur...))
		}
		c.comps = append(c.comps, bands)
		c.layers = append(c.layers, layers)
	}
	return c
}

// geometry strips the block streams: what a decoder knows of the tile.
func (c reshapeCase) geometry() [][]BandBlocks {
	out := make([][]BandBlocks, len(c.comps))
	for ci, bands := range c.comps {
		for _, b := range bands {
			out[ci] = append(out[ci], BandBlocks{Grid: b.Grid, Mb: b.Mb})
		}
	}
	return out
}

func (c reshapeCase) configure(tc *TileCoder) *TileCoder {
	tc.SOP, tc.EPH, tc.Modes = c.sop, c.sop, c.modes
	return tc
}

// TestTileCoderReshapeMatchesNew: one encoder TileCoder and one decoder
// TileCoder (with recycled block accumulators), carried through a random
// sequence of tile shapes — component counts, tile sizes, levels, code-block
// sizes and layer counts all changing between tiles — emit and parse exactly
// the packets a fresh NewTileCoderComps of each shape does.
func TestTileCoderReshapeMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var enc, dec *TileCoder
	var pooled [][]DecodedBlock
	for trial := 0; trial < 60; trial++ {
		c := synthShape(rng)
		ncomp, nlayers := len(c.comps), len(c.layers[0])
		if enc == nil {
			enc, dec = NewTileCoderComps(c.comps), NewTileCoderComps(c.geometry())
		}
		want := c.configure(NewTileCoderComps(c.comps)).EncodeTileCompsPackets(c.comps, c.levels, c.layers, nil, nil)
		got := c.configure(enc).EncodeTileCompsPackets(c.comps, c.levels, c.layers, nil, nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: reshaped coder emits %d bytes that differ from a new coder's %d", trial, len(got), len(want))
		}

		geom := c.geometry()
		fresh, n, err := c.configure(NewTileCoderComps(geom)).DecodeTileCompsPackets(geom, c.levels, nlayers, want, make([][]DecodedBlock, ncomp))
		if err != nil || n != len(want) {
			t.Fatalf("trial %d: new coder decode: %d of %d bytes, %v", trial, n, len(want), err)
		}
		for len(pooled) < ncomp {
			pooled = append(pooled, nil)
		}
		decs, n, err := c.configure(dec).DecodeTileCompsPackets(geom, c.levels, nlayers, want, pooled[:ncomp])
		if err != nil || n != len(want) {
			t.Fatalf("trial %d: reshaped coder decode: %d of %d bytes, %v", trial, n, len(want), err)
		}
		copy(pooled, decs)
		for ci := range fresh {
			if len(decs[ci]) != len(fresh[ci]) {
				t.Fatalf("trial %d comp %d: %d blocks, want %d", trial, ci, len(decs[ci]), len(fresh[ci]))
			}
			for id, b := range fresh[ci] {
				g := decs[ci][id]
				if g.Passes != b.Passes || g.NumBitplanes != b.NumBitplanes || !bytes.Equal(g.Data, b.Data) ||
					!equalInts(g.SegmentEnds(c.modes), b.SegmentEnds(c.modes)) {
					t.Fatalf("trial %d comp %d block %d: reshaped decode %+v, new decode %+v", trial, ci, id, g, b)
				}
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGridReshapeMatchesMakeGrid: a grid reshaped from any earlier band
// equals MakeGrid of the new band.
func TestGridReshapeMatchesMakeGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var g Grid
	for trial := 0; trial < 200; trial++ {
		b := dwt.Subband{X0: rng.Intn(9), Y0: rng.Intn(9)}
		b.X1, b.Y1 = b.X0+rng.Intn(140), b.Y0+rng.Intn(140)
		cbw, cbh := 4<<rng.Intn(4), 4<<rng.Intn(4)
		g.Reshape(b, cbw, cbh)
		want := MakeGrid(b, cbw, cbh)
		if g.Band != want.Band || g.GW != want.GW || g.GH != want.GH || len(g.Rects) != len(want.Rects) {
			t.Fatalf("trial %d: reshaped %+v, MakeGrid %+v", trial, g, want)
		}
		for i := range want.Rects {
			if g.Rects[i] != want.Rects[i] {
				t.Fatalf("trial %d rect %d: %+v, want %+v", trial, i, g.Rects[i], want.Rects[i])
			}
		}
	}
}

// TestTileLayoutReshapeReuse: one TileLayout reshaped over alternating shapes
// — tile sizes and edge tiles, levels, component counts and code-block sizes —
// equals a fresh layout of each, hands every band's Blocks back as it was (the
// encoder keeps its per-block streams there), and allocates nothing once it
// has held every shape.
func TestTileLayoutReshapeReuse(t *testing.T) {
	type shape struct {
		p  Params
		ti int
	}
	mk := func(w, h, tw, th, ncomp, levels, cbw, cbh, ti int) shape {
		p := Params{Width: w, Height: h, TileW: tw, TileH: th, NComp: ncomp, Levels: levels, CBW: cbw, CBH: cbh}
		for ci := range ncomp {
			mb := make([]int, 1+3*levels)
			for bi := range mb {
				mb[bi] = 1 + ci + bi
			}
			p.Mb = append(p.Mb, mb)
		}
		return shape{p, ti}
	}
	shapes := []shape{
		mk(200, 120, 64, 64, 3, 5, 64, 64, 0),
		mk(200, 120, 64, 64, 1, 2, 16, 32, 7), // the corner tile, 8x56
		mk(37, 53, 37, 53, 4, 0, 4, 64, 0),
		mk(300, 300, 128, 96, 3, 3, 32, 8, 5),
		mk(17, 9, 100, 100, 1, 6, 8, 4, 0), // a tile larger than the image
	}
	var l TileLayout
	kept := map[[2]int]*BlockStream{} // per (component, band): the first element of the Blocks it was given
	for round := 0; round < 2; round++ {
		for i := range shapes {
			s := &shapes[i]
			l.Reshape(&s.p, s.ti)
			var fresh TileLayout
			fresh.Reshape(&s.p, s.ti)
			if l.X0 != fresh.X0 || l.Y0 != fresh.Y0 || l.W != fresh.W || l.H != fresh.H ||
				!reflect.DeepEqual(l.Subbands, fresh.Subbands) || len(l.Comps) != len(fresh.Comps) {
				t.Fatalf("shape %d: reshaped %+v, fresh %+v", i, l, fresh)
			}
			for ci, bands := range fresh.Comps {
				if len(l.Comps[ci]) != len(bands) {
					t.Fatalf("shape %d component %d: %d bands, want %d", i, ci, len(l.Comps[ci]), len(bands))
				}
				for bi, want := range bands {
					got := &l.Comps[ci][bi]
					if got.Mb != want.Mb || got.Grid.Band != want.Grid.Band || got.Grid.GW != want.Grid.GW ||
						got.Grid.GH != want.Grid.GH || !slices.Equal(got.Grid.Rects, want.Grid.Rects) {
						t.Fatalf("shape %d component %d band %d: grid %+v Mb %d, want %+v Mb %d",
							i, ci, bi, got.Grid, got.Mb, want.Grid, want.Mb)
					}
					key := [2]int{ci, bi}
					if first, ok := kept[key]; !ok {
						got.Blocks = []*BlockStream{{}}
						kept[key] = got.Blocks[0]
					} else if len(got.Blocks) != 1 || got.Blocks[0] != first {
						t.Fatalf("shape %d component %d band %d: Blocks not kept", i, ci, bi)
					}
				}
			}
		}
	}
	if a := testing.AllocsPerRun(10, func() {
		for i := range shapes {
			l.Reshape(&shapes[i].p, shapes[i].ti)
		}
	}); a != 0 {
		t.Errorf("warm Reshape over %d shapes: %.1f allocations, want 0", len(shapes), a)
	}
}

// TestScannerReuseMatchesNew: one Scanner driven through streams of
// alternating shape — component counts 1, 3 and 4, per-component QCC markers
// or one QCD for all, 5/3 and 9/7, one to six tiles — returns what a fresh
// scan of each returns, strict and resilient, and a warm rescan allocates
// nothing.
func TestScannerReuseMatchesNew(t *testing.T) {
	stream := func(ncomp, levels, tiles int, kernel dwt.Kernel, qcc bool) *Source {
		nb := 1 + 3*levels
		p := Params{
			Width: 40 * tiles, Height: 30, TileW: 40, TileH: 30, NComp: ncomp,
			BitDepth: 8, Levels: levels, Layers: 2, CBW: 32, CBH: 32, MCT: ncomp == 3,
			Kernel: kernel, GuardBits: 2,
		}
		for ci := 0; ci < ncomp; ci++ {
			mb := make([]int, nb)
			var steps []quant.Step
			if kernel == dwt.Irr97 {
				steps = make([]quant.Step, nb)
			}
			for b := range mb {
				mb[b] = 9 + b%3
				if qcc {
					mb[b] += ci
				}
				if steps != nil {
					steps[b] = quant.StepFor(0.002 * float64(b+1) * float64(mb[b]))
				}
			}
			p.Mb, p.Steps = append(p.Mb, mb), append(p.Steps, steps)
		}
		if !qcc { // one QCD serves every component
			p.Mb, p.Steps = p.Mb[:1], p.Steps[:1]
		}
		bodies := make([][]byte, tiles)
		for i := range bodies {
			bodies[i] = bytes.Repeat([]byte{byte(i + 1)}, 3+i)
		}
		return BytesSource(WriteCodestream(p, bodies))
	}
	srcs := []*Source{
		stream(3, 2, 2, dwt.Irr97, true),
		stream(3, 2, 2, dwt.Irr97, false),
		stream(1, 5, 6, dwt.Rev53, false),
		stream(4, 3, 1, dwt.Irr97, true),
		stream(1, 1, 3, dwt.Irr97, false),
	}
	var sc Scanner
	cycle := func(check bool) {
		for _, resilient := range []bool{false, true} {
			for i, src := range srcs {
				p, spans, dmg, err := sc.Scan(src, resilient)
				if !check {
					continue
				}
				wp, wspans, wdmg, werr := new(Scanner).Scan(src, resilient)
				if err != nil || werr != nil {
					t.Fatalf("stream %d resilient %v: %v / %v", i, resilient, err, werr)
				}
				if !reflect.DeepEqual(p, wp) || !reflect.DeepEqual(spans, wspans) || dmg != wdmg {
					t.Fatalf("stream %d resilient %v: reused scan %+v %v, fresh %+v %v", i, resilient, p, spans, wp, wspans)
				}
			}
		}
	}
	cycle(true)
	cycle(true)
	if n := testing.AllocsPerRun(5, func() { cycle(false) }); n != 0 {
		t.Errorf("warm rescans allocate %.1f times per cycle, want 0", n)
	}
}
