package jp2k

import (
	"math"
	"math/rand"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// regionCases are the encode configurations the windowed-decode contract is
// verified against: both kernels, single- and multi-tile layouts, layered
// rate control, ROI scaling and non-default code-block sizes.
func regionCases() []Options {
	return []Options{
		{Kernel: dwt.Rev53, Levels: 3},
		{Kernel: dwt.Rev53, TileW: 64, TileH: 96, CBW: 32, CBH: 16, Levels: 3},
		{Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 1.0}, TileW: 100, TileH: 90},
		{Kernel: dwt.Irr97, LayerBPP: []float64{0.5}, ROI: &ROIRect{X0: 30, Y0: 20, X1: 120, Y1: 100}},
	}
}

func crop(im *raster.Image, r Rect) *raster.Image {
	out := raster.New(r.Dx(), r.Dy())
	for y := 0; y < out.Height; y++ {
		copy(out.Row(y), im.Pix[(r.Y0+y)*im.Stride+r.X0:(r.Y0+y)*im.Stride+r.X1])
	}
	return out
}

// decodeRegion is the single-plane window decode of a resident stream:
// Comps[0] of DecodeRegionPlanarSource, on dec or (nil) a throwaway Decoder
// over the shared default pool.
func decodeRegion(dec *Decoder, cs []byte, r Rect, opts DecodeOptions) (*raster.Image, error) {
	if dec == nil {
		dec = NewDecoderWithPool(nil)
	}
	pl, err := dec.DecodeRegionPlanarSource(t2.BytesSource(cs), r, opts)
	if err != nil {
		return nil, err
	}
	return pl.Comps[0], nil
}

// TestDecodeRegionMatchesCrop is the windowed-decode analogue of
// TestEncodeDeterministicAcrossWorkers: for every case, every (reduce,
// layers) combination and Workers in {1, 2, 4, 8}, a region decode must be
// bit-identical to cropping a full Decode — tile selection, the parallel
// decomposition and the pooled state must never influence decoded samples.
func TestDecodeRegionMatchesCrop(t *testing.T) {
	im := raster.Synthetic(230, 190, 99)
	dec := NewDecoder()
	defer dec.Close()
	for ci, o := range regionCases() {
		o.Workers = 2
		cs, _, err := Encode(im, o)
		if err != nil {
			t.Fatalf("case %d: encode: %v", ci, err)
		}
		for _, reduce := range []int{0, 1, 2} {
			for _, layers := range []int{0, 1} {
				opts := DecodeOptions{DiscardLevels: reduce, MaxLayers: layers}
				full, err := Decode(cs, opts)
				if err != nil {
					t.Fatalf("case %d reduce %d: decode: %v", ci, reduce, err)
				}
				w, h := full.Width, full.Height
				regions := []Rect{
					{0, 0, w, h},                         // everything
					{0, 0, min(17, w), min(13, h)},       // top-left corner
					{w - 1, h - 1, w, h},                 // single pixel
					{w / 3, h / 4, 2*w/3 + 1, 3*h/4 + 1}, // interior window
					{0, h / 2, w, h/2 + 1},               // full-width stripe
					{-50, -50, w + 50, h + 50},           // clamped overshoot
				}
				for _, workers := range []int{1, 2, 4, 8} {
					opts.Workers = workers
					for ri, r := range regions {
						got, err := decodeRegion(dec, cs, r, opts)
						if err != nil {
							t.Fatalf("case %d reduce %d layers %d workers %d region %d: %v",
								ci, reduce, layers, workers, ri, err)
						}
						want := crop(full, r.Intersect(Rect{X1: w, Y1: h}))
						if !raster.Equal(got, want) {
							t.Errorf("case %d reduce %d layers %d workers %d region %d (%+v): window differs from crop",
								ci, reduce, layers, workers, ri, r)
						}
					}
				}
			}
		}
	}
}

// TestDecoderReuseDeterministic asserts a reused Decoder produces bit-
// identical output to the one-shot path across repeated decodes that
// interleave different streams, option sets and worker counts — pooled state
// must not leak between calls.
func TestDecoderReuseDeterministic(t *testing.T) {
	images := []*raster.Image{
		raster.Synthetic(230, 190, 99),
		raster.Synthetic(127, 255, 5),
	}
	cases := regionCases()
	type key struct{ im, ci, reduce int }
	streams := map[int][]byte{}
	want := map[key]*raster.Image{}
	for ii, im := range images {
		for ci, o := range cases {
			o.Workers = 2
			cs, _, err := Encode(im, o)
			if err != nil {
				t.Fatalf("image %d case %d: %v", ii, ci, err)
			}
			streams[ii*len(cases)+ci] = cs
			for _, reduce := range []int{0, 2} {
				ref, err := Decode(cs, DecodeOptions{DiscardLevels: reduce})
				if err != nil {
					t.Fatalf("image %d case %d reduce %d: %v", ii, ci, reduce, err)
				}
				want[key{ii, ci, reduce}] = ref
			}
		}
	}
	dec := NewDecoder()
	defer dec.Close()
	for round := 0; round < 3; round++ {
		for ii := range images {
			for ci := range cases {
				for _, reduce := range []int{0, 2} {
					opts := DecodeOptions{DiscardLevels: reduce, Workers: 1 + (round+ci)%4}
					got, err := dec.Decode(streams[ii*len(cases)+ci], opts)
					if err != nil {
						t.Fatalf("round %d image %d case %d: %v", round, ii, ci, err)
					}
					if !raster.Equal(got, want[key{ii, ci, reduce}]) {
						t.Errorf("round %d image %d case %d reduce %d (workers=%d): reused decoder differs from one-shot",
							round, ii, ci, reduce, opts.Workers)
					}
				}
			}
		}
	}
}

// TestDecoderSteadyStateAllocs enforces the pooled decode path's alloc
// budget: a warm Decoder must allocate at least 10x less per call than the
// one-shot Decode function (the ROADMAP perf-methodology bar for pooling a
// stage). The returned image itself is the only required allocation.
func TestDecoderSteadyStateAllocs(t *testing.T) {
	im := raster.Synthetic(256, 256, 7)
	cs, _, err := Encode(im, Options{Kernel: dwt.Irr97, LayerBPP: []float64{1.0}})
	if err != nil {
		t.Fatal(err)
	}
	opts := DecodeOptions{Workers: 1}
	oneShot := testing.AllocsPerRun(5, func() {
		if _, err := Decode(cs, opts); err != nil {
			t.Fatal(err)
		}
	})
	dec := NewDecoder()
	defer dec.Close()
	for i := 0; i < 3; i++ { // warm the pools
		if _, err := dec.Decode(cs, opts); err != nil {
			t.Fatal(err)
		}
	}
	pooled := testing.AllocsPerRun(10, func() {
		if _, err := dec.Decode(cs, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decode allocs/op: one-shot %.0f, pooled steady-state %.0f", oneShot, pooled)
	if pooled*10 > oneShot {
		t.Fatalf("pooled decode allocates %.0f/op, more than 1/10 of the one-shot path's %.0f", pooled, oneShot)
	}
}

// TestDecodeRegionRobustness feeds corrupted and truncated streams to the
// windowed decoder: errors are expected, panics are not.
func TestDecodeRegionRobustness(t *testing.T) {
	im := raster.Synthetic(96, 96, 31)
	cs, _, err := Encode(im, Options{Kernel: dwt.Irr97, LayerBPP: []float64{1.0}, TileW: 48, TileH: 48})
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	defer dec.Close()
	region := Rect{X0: 10, Y0: 10, X1: 60, Y1: 60}
	try := func(data []byte, label string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: DecodeRegion panicked: %v", label, r)
			}
		}()
		_, _ = decodeRegion(dec, data, region, DecodeOptions{Workers: 2})
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), cs...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		try(mut, "flip")
	}
	for trial := 0; trial < 100; trial++ {
		try(cs[:rng.Intn(len(cs))], "truncate")
	}
}

// TestDecodeRegionErrors covers the argument contract: fully out-of-range
// windows are errors, not empty images.
func TestDecodeRegionErrors(t *testing.T) {
	im := raster.Synthetic(64, 64, 3)
	cs, _, err := Encode(im, Options{Kernel: dwt.Rev53})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Rect{
		{X0: 64, Y0: 0, X1: 96, Y1: 32},  // beyond right edge
		{X0: 10, Y0: 10, X1: 10, Y1: 40}, // empty
		{X0: 30, Y0: 30, X1: 20, Y1: 40}, // inverted
	} {
		if _, err := decodeRegion(nil, cs, r, DecodeOptions{}); err == nil {
			t.Errorf("region %+v: want error, got image", r)
		}
	}
}

func TestRoundShiftSaturates(t *testing.T) {
	// Out-of-range 9/7 outputs saturate instead of wrapping (a hostile
	// stream reaches them); in range the result is int32(v±0.5) + shift.
	for _, shift := range []int32{0, 128, 1 << 15} {
		for _, c := range []struct {
			v    float64
			want int32
		}{
			{3e9, math.MaxInt32}, {1e300, math.MaxInt32}, {math.Inf(1), math.MaxInt32},
			{-3e9, math.MinInt32 + shift}, {-1e300, math.MinInt32 + shift}, {math.Inf(-1), math.MinInt32 + shift},
			{math.MaxInt32, math.MaxInt32}, {math.MinInt32, math.MinInt32 + shift},
		} {
			if got := roundShift(c.v, shift); got != c.want {
				t.Errorf("roundShift(%g, %d) = %d, want %d", c.v, shift, got, c.want)
			}
		}
		for _, v := range []float64{0, math.Copysign(0, -1), 0.49999999999999994, 0.5, -0.5, 1.5, -1.5, -2.5, 254.7, -254.7, 1e6 + 0.25} {
			want := int32(v-0.5) + shift
			if v >= 0 {
				want = int32(v+0.5) + shift
			}
			if got := roundShift(v, shift); got != want {
				t.Errorf("roundShift(%g, %d) = %d, want %d", v, shift, got, want)
			}
		}
	}
}
