package t2_test

import (
	"bytes"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/jp2k"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// codStyleOffsetFuzz is codStyleOffset without the testing.T plumbing, for
// seed construction.
func codStyleOffsetFuzz(cs []byte) int {
	return bytes.Index(cs, []byte{0xFF, 0x52}) + 12
}

// FuzzReadCodestream drives the container scanner, the packet-boundary index
// and the windowed decoder with arbitrary bytes. The contract under fuzzing
// is purely defensive: any input either parses or returns an error — no
// panics, no runaway allocations (the SIZ/COD sanity limits bound every
// size derived from the stream).
func FuzzReadCodestream(f *testing.F) {
	im := raster.Synthetic(96, 64, 3)
	for _, o := range []jp2k.Options{
		{Kernel: dwt.Rev53, Levels: 2},
		{Kernel: dwt.Rev53, TileW: 48, TileH: 32, Levels: 2, CBW: 16, CBH: 16},
		{Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 1.0}},
	} {
		cs, _, err := jp2k.Encode(im, o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(cs)
		f.Add(cs[:len(cs)/2])
	}
	// Coder-mode seeds: terminated and bypassed streams carry multiple
	// codeword-segment lengths per block in the packet headers — new framing
	// for the fuzzer to bend. The COD mutants exercise the unsupported-
	// signalling rejection paths (style bit, Lcod, precinct bit, progression).
	for _, c := range []jp2k.CoderOptions{
		{Bypass: true},
		{Bypass: true, TermAll: true},
		{TermAll: true, ResetCtx: true, Causal: true},
	} {
		cs, _, err := jp2k.Encode(im, jp2k.Options{
			Kernel: dwt.Rev53, Levels: 2, CBW: 32, CBH: 32, Coder: c,
		})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(cs)
		f.Add(cs[:3*len(cs)/4])
	}
	{
		cs, _, err := jp2k.Encode(im, jp2k.Options{Kernel: dwt.Rev53, Coder: jp2k.CoderOptions{Bypass: true}})
		if err != nil {
			f.Fatal(err)
		}
		style := codStyleOffsetFuzz(cs)
		for _, m := range []struct {
			off int
			val byte
		}{
			{style, cs[style] | 0x40},       // reserved style bit
			{style - 9, 13},                 // Lcod
			{style - 8, cs[style-8] | 0x01}, // Scod bit 0: user-defined precincts
			{style - 7, 2},                  // progression order RPCL
		} {
			mut := append([]byte(nil), cs...)
			mut[m.off] = m.val
			f.Add(mut)
		}
	}
	// Multi-component seeds: Csiz=3 MCT streams (QCC markers, interleaved
	// packets) for both kernels, plus a mutant whose component depths
	// disagree — the inconsistent-SIZ rejection path.
	pl := raster.RGB(im, raster.Synthetic(96, 64, 4), raster.Synthetic(96, 64, 5))
	for _, o := range []jp2k.Options{
		{Kernel: dwt.Rev53, Levels: 2, MCT: true, TileW: 48, TileH: 32},
		{Kernel: dwt.Irr97, MCT: true, LayerBPP: []float64{0.5, 2.0}},
	} {
		cs, _, err := jp2k.EncodePlanar(pl, o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(cs)
		f.Add(cs[:2*len(cs)/3])
		depthMut := append([]byte(nil), cs...)
		depthMut[45] = 11 // component 1 Ssiz inside SIZ: depth 12 vs 8
		f.Add(depthMut)
	}
	f.Add([]byte{0xFF, 0x4F})
	f.Add([]byte{0xFF, 0x4F, 0xFF, 0x51, 0x00, 0x29})

	f.Fuzz(func(t *testing.T, data []byte) {
		src := t2.BytesSource(data)
		if _, _, err := t2.ScanCodestream(src); err != nil {
			return
		}
		// A stream the container scanner accepts must still index and decode
		// without panicking, whatever its packet bytes hold — every component
		// of it.
		_, _ = t2.BuildIndex(t2.BytesSource(data))
		_, _ = jp2k.Decode(data, jp2k.DecodeOptions{})
		_, _ = jp2k.DecodePlanarSource(src, jp2k.DecodeOptions{})
		dec := jp2k.NewDecoderWithPool(nil)
		_, _ = dec.DecodeRegionPlanarSource(src, jp2k.Rect{X0: 1, Y0: 1, X1: 9, Y1: 9}, jp2k.DecodeOptions{MaxLayers: 1, DiscardLevels: 1})
	})
}
