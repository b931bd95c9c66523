package t2

import (
	"bytes"
	"math/rand"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/quant"
)

// TestCodestreamMultiComponent round-trips a Csiz=3 header: per-component
// quantization travels in QCD (component 0) plus one QCC per further
// component, and the MCT flag survives COD.
func TestCodestreamMultiComponent(t *testing.T) {
	p := Params{
		Width: 120, Height: 90, TileW: 60, TileH: 90, NComp: 3,
		BitDepth: 8, Levels: 2, Layers: 2, CBW: 32, CBH: 32, MCT: true,
		Kernel: dwt.Irr97, GuardBits: 2,
		Mb: [][]int{
			{9, 10, 10, 11, 8, 8, 9},
			{7, 8, 8, 9, 6, 6, 7},
			{6, 7, 7, 8, 5, 5, 6},
		},
		Steps: [][]quant.Step{
			make([]quant.Step, 7), make([]quant.Step, 7), make([]quant.Step, 7),
		},
	}
	for ci := range p.Steps {
		for i := range p.Steps[ci] {
			p.Steps[ci][i] = quant.StepFor(0.002 * float64(ci+1) * float64(i+1))
		}
	}
	tiles := [][]byte{{1, 2, 3}, {4, 5}}
	cs := WriteCodestream(p, tiles)
	q, gotTiles, err := scanTiles(cs)
	if err != nil {
		t.Fatal(err)
	}
	if q.NComp != 3 || !q.MCT || q.BitDepth != 8 || q.Layers != 2 {
		t.Fatalf("params mismatch: %+v", q)
	}
	if err := q.CheckGeometry(); err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < 3; ci++ {
		for i := range p.Mb[ci] {
			if q.Mb[ci][i] != p.Mb[ci][i] {
				t.Fatalf("Mb[%d][%d] = %d want %d", ci, i, q.Mb[ci][i], p.Mb[ci][i])
			}
			if q.Steps[ci][i] != p.Steps[ci][i] {
				t.Fatalf("Steps[%d][%d] = %+v want %+v", ci, i, q.Steps[ci][i], p.Steps[ci][i])
			}
		}
	}
	if len(gotTiles) != 2 || !bytes.Equal(gotTiles[0], tiles[0]) || !bytes.Equal(gotTiles[1], tiles[1]) {
		t.Fatal("tile data mismatch")
	}
}

// TestCodestreamInconsistentSIZ: per-component SIZ fields that this codec
// cannot represent — mismatched bit depths, subsampled components, absurd
// component counts — must be structured errors, never panics.
func TestCodestreamInconsistentSIZ(t *testing.T) {
	p := Params{
		Width: 64, Height: 64, TileW: 64, TileH: 64, NComp: 3,
		BitDepth: 8, Levels: 1, Layers: 1, CBW: 32, CBH: 32,
		Kernel: dwt.Rev53, GuardBits: 2,
		Mb: [][]int{{8, 8, 8, 8}, {8, 8, 8, 8}, {8, 8, 8, 8}},
	}
	cs := WriteCodestream(p, [][]byte{{0}})
	// SIZ layout: SOC(2) SIZ(2) Lsiz(2) Rsiz(2) 8*u32(32) Csiz(2) then
	// 3 bytes per component.
	const compOff = 2 + 2 + 2 + 2 + 32 + 2

	depthMut := append([]byte(nil), cs...)
	depthMut[compOff+3] = 11 // component 1 Ssiz: depth 12 vs component 0's 8
	if _, _, err := ScanCodestream(BytesSource(depthMut)); err == nil {
		t.Error("want error for mismatched component depths")
	}

	subMut := append([]byte(nil), cs...)
	subMut[compOff+4] = 2 // component 1 XRsiz: 2x subsampling
	if _, _, err := ScanCodestream(BytesSource(subMut)); err == nil {
		t.Error("want error for subsampled component")
	}

	csizMut := append([]byte(nil), cs...)
	csizMut[compOff-2], csizMut[compOff-1] = 0x40, 0x00 // Csiz = 16384
	if _, _, err := ScanCodestream(BytesSource(csizMut)); err == nil {
		t.Error("want error for component count beyond the limit")
	}

	zeroMut := append([]byte(nil), cs...)
	zeroMut[compOff-2], zeroMut[compOff-1] = 0, 0 // Csiz = 0
	if _, _, err := ScanCodestream(BytesSource(zeroMut)); err == nil {
		t.Error("want error for zero components")
	}
}

// TestCheckGeometryPerComponent: the cross-marker validation must reject
// quantization arrays that do not cover every component or band.
func TestCheckGeometryPerComponent(t *testing.T) {
	base := Params{
		Width: 64, Height: 64, TileW: 64, TileH: 64, NComp: 3,
		BitDepth: 8, Levels: 1, Layers: 1, CBW: 32, CBH: 32,
		Kernel: dwt.Rev53,
		Mb:     [][]int{{8, 8, 8, 8}, {8, 8, 8, 8}, {8, 8, 8, 8}},
	}
	if err := base.CheckGeometry(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}

	missingComp := base
	missingComp.Mb = base.Mb[:2]
	if err := missingComp.CheckGeometry(); err == nil {
		t.Error("want error for quantization covering 2 of 3 components")
	}

	shortBands := base
	shortBands.Mb = [][]int{{8, 8, 8, 8}, {8, 8}, {8, 8, 8, 8}}
	if err := shortBands.CheckGeometry(); err == nil {
		t.Error("want error for a component with too few bands")
	}

	mctTwo := base
	mctTwo.NComp = 2
	mctTwo.MCT = true
	mctTwo.Mb = base.Mb[:2]
	if err := mctTwo.CheckGeometry(); err == nil {
		t.Error("want error for MCT on a 2-component stream")
	}

	missingSteps := base
	missingSteps.Kernel = dwt.Irr97
	if err := missingSteps.CheckGeometry(); err == nil {
		t.Error("want error for 9/7 params without per-component steps")
	}
}

// TestTilePacketsMultiComponentRoundTrip drives the component-interleaved
// packet iteration directly: three components with different synthetic block
// populations encode into one LRCP body and decode back exactly.
func TestTilePacketsMultiComponentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	levels := 2
	const nc = 3
	comps := make([][]BandBlocks, nc)
	layers := make([][][]int, nc)
	nblocks := make([]int, nc)
	for ci := 0; ci < nc; ci++ {
		comps[ci], nblocks[ci] = synthBands(rng, levels)
		// Two layers of non-decreasing cumulative pass counts — except
		// component 2, which gets a single layer: the progression still
		// emits one (empty) packet for it in layer 1, exercising the
		// ragged-layer tolerance.
		perCompLayers := 2
		if ci == 2 {
			perCompLayers = 1
		}
		cur := make([]int, nblocks[ci])
		for li := 0; li < perCompLayers; li++ {
			id := 0
			for _, b := range comps[ci] {
				for _, blk := range b.Blocks {
					if n := len(blk.PassRates); n > cur[id] && rng.Intn(2) == 1 {
						cur[id] += rng.Intn(n-cur[id]) + 1
					}
					id++
				}
			}
			layers[ci] = append(layers[ci], append([]int(nil), cur...))
		}
	}
	tc := NewTileCoderComps(comps)
	stream := tc.EncodeTileCompsPackets(comps, levels, layers, nil, nil)

	decComps := make([][]BandBlocks, nc)
	for ci := range comps {
		decComps[ci] = make([]BandBlocks, len(comps[ci]))
		for bi, b := range comps[ci] {
			decComps[ci][bi] = BandBlocks{Grid: b.Grid, Mb: b.Mb}
		}
	}
	dec, n, err := NewTileCoderComps(decComps).DecodeTileCompsPackets(
		decComps, levels, 2, stream, make([][]DecodedBlock, nc))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(stream) {
		t.Fatalf("consumed %d of %d bytes", n, len(stream))
	}
	for ci := 0; ci < nc; ci++ {
		id := 0
		for _, b := range comps[ci] {
			for _, blk := range b.Blocks {
				np := layers[ci][len(layers[ci])-1][id]
				if dec[ci][id].Passes != np {
					t.Fatalf("comp %d block %d: %d passes, want %d", ci, id, dec[ci][id].Passes, np)
				}
				if np > 0 && !bytes.Equal(dec[ci][id].Data, blk.Data[:blk.PassRates[np-1]]) {
					t.Fatalf("comp %d block %d: data mismatch", ci, id)
				}
				id++
			}
		}
	}
}
