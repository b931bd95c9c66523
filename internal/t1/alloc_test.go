package t1

import (
	"testing"

	"pj2k/internal/dwt"
)

// testBlock returns a sparse signed coefficient block exercising all three
// pass types.
func testBlock(n int) []int32 {
	data := make([]int32, n*n)
	for i := range data {
		v := int32((i * 2654435761) % 512)
		if i%3 == 0 {
			v = -v
		}
		if i%5 != 0 {
			v = 0
		}
		data[i] = v
	}
	return data
}

// TestCoderSteadyStateAllocs caps the steady-state allocations of pooled
// block encoding: once the Coder's arenas are warm, encoding must not touch
// the heap. The cap of 1 absorbs rare arena-chunk growth on outlier blocks.
func TestCoderSteadyStateAllocs(t *testing.T) {
	data := testBlock(64)
	co := NewCoder()
	// Warm the arenas with one full round.
	co.Encode(data, 64, 64, 64, dwt.HH)
	co.Release()
	avg := testing.AllocsPerRun(50, func() {
		co.Encode(data, 64, 64, 64, dwt.HH)
		co.Release()
	})
	if avg > 1 {
		t.Fatalf("steady-state t1 block encode allocates %.1f objects/run, want <= 1", avg)
	}
}

// TestCoderMatchesEncode asserts a reused Coder produces byte-identical
// output to a fresh Coder, across blocks of different shapes and
// bands (pooled state must not leak between blocks).
func TestCoderMatchesEncode(t *testing.T) {
	co := NewCoder()
	shapes := []struct {
		w, h int
		band dwt.BandType
	}{
		{64, 64, dwt.HH},
		{32, 64, dwt.HL},
		{64, 32, dwt.LH},
		{17, 13, dwt.LL},
		{64, 64, dwt.LH},
	}
	for round := 0; round < 3; round++ {
		for _, s := range shapes {
			data := testBlock(64)[:64*s.h]
			want := encodeBlock(data, s.w, s.h, 64, s.band)
			got := co.Encode(data, s.w, s.h, 64, s.band)
			if got.NumBitplanes != want.NumBitplanes || len(got.Passes) != len(want.Passes) {
				t.Fatalf("%dx%d %v: pooled shape mismatch: %d planes/%d passes, want %d/%d",
					s.w, s.h, s.band, got.NumBitplanes, len(got.Passes), want.NumBitplanes, len(want.Passes))
			}
			if string(got.Data) != string(want.Data) {
				t.Fatalf("%dx%d %v: pooled data differs from one-shot encode", s.w, s.h, s.band)
			}
			for k := range got.Passes {
				if got.Passes[k] != want.Passes[k] {
					t.Fatalf("%dx%d %v: pass %d differs: %+v vs %+v", s.w, s.h, s.band, k, got.Passes[k], want.Passes[k])
				}
			}
		}
		co.Release()
	}
}
