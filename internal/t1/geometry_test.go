package t1

import (
	"bytes"
	"testing"

	"pj2k/internal/dwt"
)

// TestStripeTailHeights round-trips blocks whose height is not a multiple of
// the 4-row stripe: the tail stripe disables run-length mode and exercises
// the partial-column scan, which the flag-word rewrite must handle for every
// band orientation (the HL swap path included).
func TestStripeTailHeights(t *testing.T) {
	for _, h := range []int{1, 2, 3, 5, 6, 7, 9, 11, 13, 17, 63} {
		for _, w := range []int{4, 7, 16} {
			for _, band := range bandTypes {
				data := randBlock(w, h, 900, 0.4, int64(h*100+w)+int64(band))
				eb := encodeBlock(data, w, h, w, band)
				got, err := decodeBlock(eb, len(eb.Passes))
				if err != nil {
					t.Fatalf("%dx%d %v: %v", w, h, band, err)
				}
				for i := range data {
					if got[i] != data[i] {
						t.Fatalf("%dx%d %v: sample %d got %d want %d", w, h, band, i, got[i], data[i])
					}
				}
			}
		}
	}
}

// TestDegenerateRowsAndColumns round-trips 1xN and Nx1 blocks — the
// degenerate geometries where most of the 3x3 neighborhood lies in the
// border ring — per band type, at full and sparse density.
func TestDegenerateRowsAndColumns(t *testing.T) {
	for _, sz := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {1, 7}, {7, 1}, {1, 64}, {64, 1}, {1, 63}, {63, 1}} {
		for _, band := range bandTypes {
			for _, density := range []float64{0.3, 1.0} {
				data := randBlock(sz[0], sz[1], 2000, density, int64(sz[0]*31+sz[1]*7)+int64(band))
				eb := encodeBlock(data, sz[0], sz[1], sz[0], band)
				got, err := decodeBlock(eb, len(eb.Passes))
				if err != nil {
					t.Fatalf("%v %v density %.1f: %v", sz, band, density, err)
				}
				for i := range data {
					if got[i] != data[i] {
						t.Fatalf("%v %v density %.1f: sample %d got %d want %d", sz, band, density, i, got[i], data[i])
					}
				}
			}
		}
	}
}

// TestPooledCoderEdgeGeometry interleaves edge-geometry blocks through one
// pooled Coder/BlockDecoder pair and checks the output matches the one-shot
// path: stale flag words from a larger previous block must never leak into a
// smaller or differently-shaped one.
func TestPooledCoderEdgeGeometry(t *testing.T) {
	shapes := []struct {
		w, h int
		band dwt.BandType
	}{
		{64, 64, dwt.HH}, // large first, to warm (and dirty) the arenas
		{1, 64, dwt.HL},
		{64, 1, dwt.LH},
		{5, 7, dwt.LL},
		{3, 3, dwt.HL},
		{16, 13, dwt.HH},
		{1, 1, dwt.LH},
		{4, 6, dwt.HL},
	}
	co := NewCoder()
	bd := NewBlockDecoder()
	for round := 0; round < 2; round++ {
		for si, s := range shapes {
			data := randBlock(s.w, s.h, 1200, 0.5, int64(si*997+round))
			want := encodeBlock(data, s.w, s.h, s.w, s.band)
			got := co.Encode(data, s.w, s.h, s.w, s.band)
			if !bytes.Equal(got.Data, want.Data) || got.NumBitplanes != want.NumBitplanes {
				t.Fatalf("round %d shape %dx%d %v: pooled encode differs from one-shot", round, s.w, s.h, s.band)
			}
			vals, _, err := bd.DecodeBlock(&BlockIn{
				W: s.w, H: s.h, Band: s.band,
				NumBitplanes: got.NumBitplanes, Data: got.Data, NPasses: len(got.Passes),
			}, false)
			if err != nil {
				t.Fatalf("round %d shape %dx%d %v: %v", round, s.w, s.h, s.band, err)
			}
			for i := range data {
				if vals[i] != data[i] {
					t.Fatalf("round %d shape %dx%d %v: sample %d got %d want %d",
						round, s.w, s.h, s.band, i, vals[i], data[i])
				}
			}
		}
		co.Release()
		bd.Release()
	}
}

// TestHLSwapBaked verifies the HL orientation table is the LH table with the
// h/v axes swapped — the swap the LUT build bakes in so the hot loop does
// not branch per sample.
func TestHLSwapBaked(t *testing.T) {
	for m := 0; m < 256; m++ {
		swapped := m &^ (int(fSigN | fSigS | fSigE | fSigW))
		if m&int(fSigN) != 0 {
			swapped |= int(fSigW)
		}
		if m&int(fSigS) != 0 {
			swapped |= int(fSigE)
		}
		if m&int(fSigW) != 0 {
			swapped |= int(fSigN)
		}
		if m&int(fSigE) != 0 {
			swapped |= int(fSigS)
		}
		if zcLUT[dwt.HL][m] != zcLUT[dwt.LH][swapped] {
			t.Fatalf("mask %#x: HL context %d != swapped LH context %d",
				m, zcLUT[dwt.HL][m], zcLUT[dwt.LH][swapped])
		}
	}
}
