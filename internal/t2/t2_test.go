package t2

import (
	"bytes"
	"math/rand"
	"testing"

	"pj2k/internal/bitio"
	"pj2k/internal/dwt"
	"pj2k/internal/quant"
)

func TestMakeGrid(t *testing.T) {
	b := dwt.Subband{Type: dwt.HL, Level: 1, X0: 32, Y0: 0, X1: 100, Y1: 50}
	g := MakeGrid(b, 32, 32)
	if g.GW != 3 || g.GH != 2 {
		t.Fatalf("grid %dx%d, want 3x2", g.GW, g.GH)
	}
	// Blocks tile the band exactly.
	area := 0
	for _, r := range g.Rects {
		if r.X1 <= r.X0 || r.Y1 <= r.Y0 {
			t.Fatalf("degenerate rect %+v", r)
		}
		area += (r.X1 - r.X0) * (r.Y1 - r.Y0)
	}
	if area != 68*50 {
		t.Fatalf("area %d != %d", area, 68*50)
	}
	last := g.Rects[len(g.Rects)-1]
	if last.X1 != 68 || last.Y1 != 50 {
		t.Fatalf("last rect %+v", last)
	}
}

func TestMakeGridEmpty(t *testing.T) {
	b := dwt.Subband{Type: dwt.HH, Level: 5, X0: 1, Y0: 1, X1: 1, Y1: 1}
	g := MakeGrid(b, 64, 64)
	if g.GW != 0 || g.GH != 0 || len(g.Rects) != 0 {
		t.Fatalf("empty band produced grid %dx%d", g.GW, g.GH)
	}
}

func TestPassCountVLC(t *testing.T) {
	for n := 1; n <= 164; n++ {
		w := bitio.NewStuffWriter()
		writePassCount(w, n)
		r := new(bitio.StuffReader)
		r.Reset(w.Bytes())
		got, err := readPassCount(r)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got != n {
			t.Fatalf("n=%d decoded as %d", n, got)
		}
	}
}

// synthetic band setup: a single band with a grid of blocks holding random
// "segments" whose pass rates slice the data.
func synthBands(rng *rand.Rand, levels int) ([]BandBlocks, int) {
	bands := dwt.Subbands(64, 64, levels)
	out := make([]BandBlocks, len(bands))
	total := 0
	for i, b := range bands {
		g := MakeGrid(b, 16, 16)
		bb := BandBlocks{Grid: g, Mb: 12, Blocks: make([]*BlockStream, len(g.Rects))}
		for k := range bb.Blocks {
			npasses := rng.Intn(8)
			bs := &BlockStream{NumBitplanes: 1 + rng.Intn(11)}
			r := 0
			for pi := 0; pi < npasses; pi++ {
				r += rng.Intn(40)
				bs.PassRates = append(bs.PassRates, r)
			}
			bs.Data = make([]byte, r)
			rng.Read(bs.Data)
			bb.Blocks[k] = bs
			total++
		}
		out[i] = bb
	}
	return out, total
}

// encodeTile and decodeTile drive the packet coder over a one-component
// tile: the bands wrapped as the single entry of the per-component lists.
func encodeTile(bands []BandBlocks, levels int, layers [][]int) []byte {
	comps := [][]BandBlocks{bands}
	return NewTileCoderComps(comps).EncodeTileCompsPackets(comps, levels, [][][]int{layers}, nil, nil)
}

func decodeTile(bands []BandBlocks, levels, nlayers int, data []byte) ([]DecodedBlock, int, error) {
	comps := [][]BandBlocks{bands}
	decs, n, err := NewTileCoderComps(comps).DecodeTileCompsPackets(comps, levels, nlayers, data, make([][]DecodedBlock, 1))
	if err != nil {
		return nil, 0, err
	}
	return decs[0], n, nil
}

// scanTiles scans a resident codestream and slices its tile-part bodies out
// of data, for tests that compare bodies with what WriteCodestream was given.
func scanTiles(data []byte) (Params, [][]byte, error) {
	p, spans, err := ScanCodestream(BytesSource(data))
	if err != nil {
		return p, nil, err
	}
	tiles := make([][]byte, len(spans))
	for i, sp := range spans {
		tiles[i] = data[sp.Off:sp.End()]
	}
	return p, tiles, nil
}

func TestPacketsRoundTripSingleLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		levels := 1 + rng.Intn(3)
		bands, nblocks := synthBands(rng, levels)
		layer := make([]int, nblocks)
		id := 0
		for _, b := range bands {
			for _, blk := range b.Blocks {
				if n := len(blk.PassRates); n > 0 {
					layer[id] = rng.Intn(n + 1)
				}
				id++
			}
		}
		stream := encodeTile(bands, levels, [][]int{layer})

		decBands := make([]BandBlocks, len(bands))
		for i, b := range bands {
			decBands[i] = BandBlocks{Grid: b.Grid, Mb: b.Mb}
		}
		dec, n, err := decodeTile(decBands, levels, 1, stream)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if n != len(stream) {
			t.Fatalf("trial %d: consumed %d of %d bytes", trial, n, len(stream))
		}
		id = 0
		for _, b := range bands {
			for _, blk := range b.Blocks {
				np := layer[id]
				if dec[id].Passes != np {
					t.Fatalf("trial %d block %d: decoded %d passes, want %d", trial, id, dec[id].Passes, np)
				}
				if np > 0 {
					want := blk.Data[:blk.PassRates[np-1]]
					if !bytes.Equal(dec[id].Data, want) {
						t.Fatalf("trial %d block %d: data mismatch (%d vs %d bytes)",
							trial, id, len(dec[id].Data), len(want))
					}
					if dec[id].NumBitplanes != blk.NumBitplanes {
						t.Fatalf("trial %d block %d: nbp %d want %d", trial, id, dec[id].NumBitplanes, blk.NumBitplanes)
					}
				}
				id++
			}
		}
	}
}

func TestPacketsRoundTripMultiLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		levels := 2
		bands, nblocks := synthBands(rng, levels)
		nlayers := 1 + rng.Intn(4)
		layers := make([][]int, nlayers)
		// Build non-decreasing cumulative pass counts per block.
		cur := make([]int, nblocks)
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
			layers[li] = append([]int(nil), cur...)
		}
		stream := encodeTile(bands, levels, layers)

		decBands := make([]BandBlocks, len(bands))
		for i, b := range bands {
			decBands[i] = BandBlocks{Grid: b.Grid, Mb: b.Mb}
		}
		dec, n, err := decodeTile(decBands, levels, nlayers, stream)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if n != len(stream) {
			t.Fatalf("trial %d: consumed %d of %d", trial, n, len(stream))
		}
		id := 0
		for _, b := range bands {
			for _, blk := range b.Blocks {
				np := layers[nlayers-1][id]
				if dec[id].Passes != np {
					t.Fatalf("trial %d block %d: %d passes, want %d", trial, id, dec[id].Passes, np)
				}
				if np > 0 && !bytes.Equal(dec[id].Data, blk.Data[:blk.PassRates[np-1]]) {
					t.Fatalf("trial %d block %d: data mismatch", trial, id)
				}
				id++
			}
		}
	}
}

func TestLayerPrefixDecodable(t *testing.T) {
	// Decoding only the first L layers of a multi-layer stream must yield
	// exactly the passes allocated through layer L-1: the embedded/scalable
	// property of JPEG2000 streams.
	rng := rand.New(rand.NewSource(3))
	levels := 2
	bands, nblocks := synthBands(rng, levels)
	cur := make([]int, nblocks)
	layers := make([][]int, 3)
	for li := range layers {
		id := 0
		for _, b := range bands {
			for _, blk := range b.Blocks {
				if n := len(blk.PassRates); n > cur[id] {
					cur[id]++
				}
				id++
			}
		}
		layers[li] = append([]int(nil), cur...)
	}
	stream := encodeTile(bands, levels, layers)
	for nl := 1; nl <= 3; nl++ {
		decBands := make([]BandBlocks, len(bands))
		for i, b := range bands {
			decBands[i] = BandBlocks{Grid: b.Grid, Mb: b.Mb}
		}
		dec, _, err := decodeTile(decBands, levels, nl, stream)
		if err != nil {
			t.Fatalf("layers=%d: %v", nl, err)
		}
		for id := range dec {
			if dec[id].Passes != layers[nl-1][id] {
				t.Fatalf("layers=%d block %d: %d passes want %d", nl, id, dec[id].Passes, layers[nl-1][id])
			}
		}
	}
}

func TestCodestreamRoundTrip(t *testing.T) {
	p := Params{
		Width: 517, Height: 311, TileW: 517, TileH: 311,
		BitDepth: 8, Levels: 5, Layers: 3, CBW: 64, CBH: 32,
		Kernel: dwt.Rev53, GuardBits: 2,
		Mb: [][]int{{10, 11, 11, 12, 9, 9, 10}},
	}
	tiles := [][]byte{{1, 2, 3, 4, 5}}
	cs := WriteCodestream(p, tiles)
	q, gotTiles, err := scanTiles(cs)
	if err != nil {
		t.Fatal(err)
	}
	if q.Width != p.Width || q.Height != p.Height || q.BitDepth != 8 ||
		q.Levels != 5 || q.Layers != 3 || q.CBW != 64 || q.CBH != 32 ||
		q.Kernel != dwt.Rev53 || q.GuardBits != 2 || q.NComp != 1 {
		t.Fatalf("params mismatch: %+v", q)
	}
	if len(q.Mb) != 1 || len(q.Mb[0]) != len(p.Mb[0]) {
		t.Fatalf("Mb shape %d", len(q.Mb))
	}
	for i := range p.Mb[0] {
		if q.Mb[0][i] != p.Mb[0][i] {
			t.Fatalf("Mb[0][%d] = %d want %d", i, q.Mb[0][i], p.Mb[0][i])
		}
	}
	if len(gotTiles) != 1 || !bytes.Equal(gotTiles[0], tiles[0]) {
		t.Fatal("tile data mismatch")
	}
}

func TestCodestreamIrreversibleSteps(t *testing.T) {
	p := Params{
		Width: 64, Height: 64, TileW: 64, TileH: 64,
		BitDepth: 8, Levels: 2, Layers: 1, CBW: 32, CBH: 32,
		Kernel: dwt.Irr97, GuardBits: 1,
		Mb:    [][]int{{9, 10, 10, 11, 8, 8, 9}},
		Steps: [][]quant.Step{make([]quant.Step, 7)},
	}
	for i := range p.Steps[0] {
		p.Steps[0][i] = quant.Step{Exponent: 3 + i, Mantissa: 97 * i}
	}
	cs := WriteCodestream(p, [][]byte{{0xAA}})
	q, _, err := ScanCodestream(BytesSource(cs))
	if err != nil {
		t.Fatal(err)
	}
	if q.Kernel != dwt.Irr97 || len(q.Steps) != 1 || len(q.Steps[0]) != 7 {
		t.Fatalf("bad params %+v", q)
	}
	for i := range p.Steps[0] {
		if q.Steps[0][i] != p.Steps[0][i] {
			t.Fatalf("step %d: %+v want %+v", i, q.Steps[0][i], p.Steps[0][i])
		}
	}
}

func TestCodestreamMultiTile(t *testing.T) {
	p := Params{
		Width: 100, Height: 100, TileW: 50, TileH: 50,
		BitDepth: 8, Levels: 1, Layers: 1, CBW: 64, CBH: 64,
		Kernel: dwt.Rev53, GuardBits: 2, Mb: [][]int{{8, 9, 9, 10}},
	}
	tiles := [][]byte{{1}, {2, 2}, {3, 3, 3}, {}}
	cs := WriteCodestream(p, tiles)
	q, gotTiles, err := scanTiles(cs)
	if err != nil {
		t.Fatal(err)
	}
	tx, ty := q.NumTiles()
	if tx != 2 || ty != 2 {
		t.Fatalf("tile grid %dx%d", tx, ty)
	}
	if len(gotTiles) != 4 {
		t.Fatalf("%d tiles", len(gotTiles))
	}
	for i := range tiles {
		if !bytes.Equal(gotTiles[i], tiles[i]) {
			t.Fatalf("tile %d mismatch", i)
		}
	}
}

func TestCodestreamErrors(t *testing.T) {
	if _, _, err := ScanCodestream(BytesSource([]byte{0x00, 0x01})); err == nil {
		t.Fatal("want error for missing SOC")
	}
	p := Params{Width: 8, Height: 8, TileW: 8, TileH: 8, BitDepth: 8,
		Levels: 1, Layers: 1, CBW: 64, CBH: 64, Kernel: dwt.Rev53, GuardBits: 2, Mb: [][]int{{8, 8, 8, 8}}}
	cs := WriteCodestream(p, [][]byte{{1, 2, 3}})
	if _, _, err := ScanCodestream(BytesSource(cs[:len(cs)-4])); err == nil {
		t.Fatal("want error for truncated stream")
	}
}

// TestLRCPOrder checks lrcp against the progression written out as nested
// loops — layer outer, resolution middle, component inner — with a running
// stream position.
func TestLRCPOrder(t *testing.T) {
	for levels := 0; levels <= 5; levels++ {
		for ncomp := 1; ncomp <= 3; ncomp++ {
			for nlayers := 1; nlayers <= 4; nlayers++ {
				pos := 0
				for li := 0; li < nlayers; li++ {
					for r := 0; r <= levels; r++ {
						for ci := 0; ci < ncomp; ci++ {
							want := packetID{layer: li, res: r, comp: ci}
							if got := lrcp(pos, levels, ncomp); got != want {
								t.Fatalf("levels %d comps %d layers %d: lrcp(%d) = %+v, want %+v",
									levels, ncomp, nlayers, pos, got, want)
							}
							pos++
						}
					}
				}
			}
		}
	}
}
