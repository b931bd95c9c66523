package jp2k

import (
	"math/rand"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// decodeNoPanic decodes arbitrary bytes and reports any panic as a test
// failure; errors are fine.
func decodeNoPanic(t *testing.T, data []byte, label string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: decoder panicked: %v", label, r)
		}
	}()
	_, _ = Decode(data, DecodeOptions{})
}

func TestDecodeCorruptedStreams(t *testing.T) {
	im := raster.Synthetic(96, 96, 31)
	cs, _, err := Encode(im, Options{Kernel: dwt.Irr97, LayerBPP: []float64{1.0}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))

	// Single-byte corruptions all over the stream.
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), cs...)
		pos := rng.Intn(len(mut))
		mut[pos] ^= byte(1 + rng.Intn(255))
		decodeNoPanic(t, mut, "flip")
	}
	// Truncations.
	for trial := 0; trial < 100; trial++ {
		cut := rng.Intn(len(cs))
		decodeNoPanic(t, cs[:cut], "truncate")
	}
	// Random garbage with a valid SOC prefix.
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(200)
		garbage := make([]byte, n)
		rng.Read(garbage)
		garbage[0], garbage[1] = 0xFF, 0x4F
		decodeNoPanic(t, garbage, "garbage")
	}
	// Byte deletions (shift the whole tail).
	for trial := 0; trial < 100; trial++ {
		pos := rng.Intn(len(cs))
		mut := append(append([]byte(nil), cs[:pos]...), cs[pos+1:]...)
		decodeNoPanic(t, mut, "delete")
	}
}

func TestDecodeCorruptedLossless(t *testing.T) {
	im := raster.Synthetic(64, 64, 32)
	cs, _, err := Encode(im, Options{Kernel: dwt.Rev53, TileW: 32, TileH: 32})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), cs...)
		// Corrupt a small window to exercise multi-byte damage.
		pos := rng.Intn(len(mut) - 4)
		for k := 0; k < 4; k++ {
			mut[pos+k] ^= byte(rng.Intn(256))
		}
		decodeNoPanic(t, mut, "window")
	}
}

func TestDecodeEmptyAndTiny(t *testing.T) {
	for _, data := range [][]byte{nil, {}, {0xFF}, {0xFF, 0x4F}, {0x00, 0x00, 0x00}} {
		decodeNoPanic(t, data, "tiny")
	}
}

func TestDecodeHeaderBombs(t *testing.T) {
	// Hand-crafted SIZ claiming absurd dimensions must be rejected quickly
	// rather than attempting huge allocations.
	im := raster.Synthetic(32, 32, 33)
	cs, _, err := Encode(im, Options{Kernel: dwt.Rev53})
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), cs...)
	// Width field lives at offset 2 (SOC) + 2 (SIZ marker) + 2 (Lsiz) + 2 (Rsiz).
	mut[8], mut[9], mut[10], mut[11] = 0x7F, 0xFF, 0xFF, 0xFF
	if _, err := Decode(mut, DecodeOptions{}); err == nil {
		t.Fatal("want error for absurd width")
	}
}

// TestEncodeRefusesWhatDecodeRefuses: the encoder checks the Params it is
// about to write with the rule the readers apply, so an option set the
// codestream cannot carry is an error and no stream — not a stream that
// decodes to other samples (COD carries code-block sides as exponents, so a
// 48-wide block was signalled as 32) or one Decode refuses (17-bit samples) —
// while the edges of each range round-trip exactly, on the Encoder that
// refused the rest.
func TestEncodeRefusesWhatDecodeRefuses(t *testing.T) {
	enc := NewEncoder()
	defer enc.Close()
	gray := fuzzImage(128, 128, 1, 8, 41)
	for _, tc := range []struct {
		name string
		pl   *raster.Planar
		o    Options
	}{
		{"48x48 blocks", gray, Options{CBW: 48, CBH: 48}},
		{"20-high blocks", gray, Options{CBH: 20}},
		{"2-wide blocks", gray, Options{CBW: 2}},
		{"17-bit samples", gray, Options{BitDepth: 17}},
		{"24-bit samples", gray, Options{BitDepth: 24}},
		{"33 levels", gray, Options{Levels: 33}},
		{"MCT on one component", gray, Options{MCT: true}},
		{"MaxComponents+1 components", raster.NewPlanar(8, 8, t2.MaxComponents+1), Options{}},
		{"tile wider than SIZ's axis bound", gray, Options{TileW: 1 << 21, TileH: 64}},
	} {
		if cs, _, err := enc.EncodePlanar(tc.pl, tc.o); err == nil || cs != nil {
			t.Errorf("%s: EncodePlanar returned %d bytes and error %v, want an error and no stream", tc.name, len(cs), err)
		}
		if len(tc.pl.Comps) == 1 {
			if cs, _, err := Encode(tc.pl.Comps[0], tc.o); err == nil || cs != nil {
				t.Errorf("%s: Encode returned %d bytes and error %v, want an error and no stream", tc.name, len(cs), err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		o    Options
	}{
		{"4x64 blocks", Options{CBW: 4, CBH: 64}},
		{"16-bit samples", Options{BitDepth: 16}},
		{"Levels 0 (the default depth)", Options{Levels: 0}},
	} {
		pl := fuzzImage(128, 128, 1, max(tc.o.BitDepth, 8), 42)
		cs, _, err := enc.EncodePlanar(pl, tc.o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		back, err := DecodePlanarSource(t2.BytesSource(cs), DecodeOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !raster.PlanarEqual(pl, back) {
			t.Errorf("%s: lossless round trip is not exact", tc.name)
		}
	}
}
