package jp2k

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"pj2k/internal/dwt"
	"pj2k/internal/metrics"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

func TestLosslessRoundTrip(t *testing.T) {
	for _, sz := range [][2]int{{64, 64}, {128, 96}, {100, 100}, {33, 57}} {
		im := raster.Synthetic(sz[0], sz[1], 1)
		cs, stats, err := Encode(im, Options{Kernel: dwt.Rev53})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Bytes != len(cs) {
			t.Fatalf("stats.Bytes %d != %d", stats.Bytes, len(cs))
		}
		back, err := Decode(cs, DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !raster.Equal(im, back) {
			t.Fatalf("size %v: lossless round trip failed", sz)
		}
	}
}

func TestLosslessCompresses(t *testing.T) {
	im := raster.Synthetic(256, 256, 2)
	cs, _, err := Encode(im, Options{Kernel: dwt.Rev53})
	if err != nil {
		t.Fatal(err)
	}
	raw := 256 * 256
	if len(cs) >= raw {
		t.Fatalf("lossless stream %d bytes >= raw %d", len(cs), raw)
	}
}

func TestLossyQualityAtRates(t *testing.T) {
	im := raster.Synthetic(256, 256, 3)
	for _, tc := range []struct {
		bpp     float64
		minPSNR float64
	}{
		{2.0, 40}, {1.0, 36}, {0.5, 33}, {0.25, 30},
	} {
		cs, stats, err := Encode(im, Options{Kernel: dwt.Irr97, LayerBPP: []float64{tc.bpp}})
		if err != nil {
			t.Fatal(err)
		}
		if stats.BPP > tc.bpp*1.02+0.01 {
			t.Fatalf("bpp %.3f exceeds target %.3f", stats.BPP, tc.bpp)
		}
		back, err := Decode(cs, DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		back.ClampTo8()
		psnr, err := metrics.PSNR(im, back, 255)
		if err != nil {
			t.Fatal(err)
		}
		if psnr < tc.minPSNR {
			t.Fatalf("%.2f bpp: PSNR %.2f dB below %.1f", tc.bpp, psnr, tc.minPSNR)
		}
	}
}

func TestRateDistortionMonotone(t *testing.T) {
	im := raster.Synthetic(128, 128, 4)
	prev := 0.0
	for _, bpp := range []float64{0.125, 0.25, 0.5, 1.0, 2.0} {
		cs, _, err := Encode(im, Options{Kernel: dwt.Irr97, LayerBPP: []float64{bpp}})
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(cs, DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		back.ClampTo8()
		psnr, _ := metrics.PSNR(im, back, 255)
		if psnr < prev-0.2 {
			t.Fatalf("PSNR fell from %.2f to %.2f at %.3f bpp", prev, psnr, bpp)
		}
		prev = psnr
	}
}

func TestMultiLayerScalability(t *testing.T) {
	im := raster.Synthetic(128, 128, 5)
	cs, _, err := Encode(im, Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 0.5, 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for nl := 1; nl <= 3; nl++ {
		back, err := Decode(cs, DecodeOptions{MaxLayers: nl})
		if err != nil {
			t.Fatalf("layers=%d: %v", nl, err)
		}
		back.ClampTo8()
		psnr, _ := metrics.PSNR(im, back, 255)
		if psnr < prev-0.1 {
			t.Fatalf("layer %d PSNR %.2f below layer %d PSNR %.2f", nl, psnr, nl-1, prev)
		}
		prev = psnr
	}
	if prev < 33 {
		t.Fatalf("full-stream PSNR %.2f too low", prev)
	}
}

func TestParallelOutputBitIdentical(t *testing.T) {
	// The paper's requirement: parallelization must not change the stream.
	im := raster.Synthetic(200, 144, 6)
	ref, _, err := Encode(im, Options{Kernel: dwt.Irr97, LayerBPP: []float64{1.0}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		for _, vm := range []dwt.VertMode{dwt.VertNaive, dwt.VertBlocked} {
			got, _, err := Encode(im, Options{
				Kernel: dwt.Irr97, LayerBPP: []float64{1.0},
				Workers: workers, VertMode: vm,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(ref) {
				t.Fatalf("workers=%d mode=%v: %d bytes vs %d serial", workers, vm, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("workers=%d mode=%v: byte %d differs", workers, vm, i)
				}
			}
		}
	}
}

func TestLosslessParallelBitIdentical(t *testing.T) {
	im := raster.Synthetic(160, 160, 7)
	ref, _, err := Encode(im, Options{Kernel: dwt.Rev53, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Encode(im, Options{Kernel: dwt.Rev53, Workers: 4, VertMode: dwt.VertBlocked})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("parallel lossless differs: %d vs %d bytes", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}

func TestTiledLossless(t *testing.T) {
	im := raster.Synthetic(130, 70, 8)
	cs, _, err := Encode(im, Options{Kernel: dwt.Rev53, TileW: 64, TileH: 32})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(cs, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(im, back) {
		t.Fatal("tiled lossless round trip failed")
	}
}

func TestTilingDegradesQualityAtLowRate(t *testing.T) {
	// Fig. 5's central claim: at a fixed low bitrate, more/smaller tiles
	// cost PSNR versus whole-image coding.
	im := raster.Synthetic(256, 256, 9)
	const bpp = 0.25
	psnrFor := func(tile int) float64 {
		opts := Options{Kernel: dwt.Irr97, LayerBPP: []float64{bpp}}
		if tile > 0 {
			opts.TileW, opts.TileH = tile, tile
		}
		cs, _, err := Encode(im, opts)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(cs, DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		back.ClampTo8()
		p, _ := metrics.PSNR(im, back, 255)
		return p
	}
	whole := psnrFor(0)
	tiled32 := psnrFor(32)
	if tiled32 >= whole {
		t.Fatalf("32x32 tiling PSNR %.2f not below whole-image %.2f at %.2f bpp", tiled32, whole, bpp)
	}
	if whole-tiled32 < 0.5 {
		t.Fatalf("tiling penalty only %.2f dB; expected a clear loss", whole-tiled32)
	}
}

func TestDecodeWorkersMatchSerial(t *testing.T) {
	im := raster.Synthetic(128, 128, 10)
	cs, _, err := Encode(im, Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Decode(cs, DecodeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decode(cs, DecodeOptions{Workers: 4, VertMode: dwt.VertBlocked})
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(a, b) {
		t.Fatal("parallel decode differs from serial")
	}
}

func Test12BitRadiograph(t *testing.T) {
	im := raster.SyntheticRadiograph(128, 128, 11)
	cs, _, err := Encode(im, Options{Kernel: dwt.Rev53, BitDepth: 12})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(cs, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(im, back) {
		t.Fatal("12-bit lossless round trip failed")
	}
}

func TestStageTimingsPopulated(t *testing.T) {
	im := raster.Synthetic(128, 128, 12)
	_, stats, err := Encode(im, Options{Kernel: dwt.Irr97, LayerBPP: []float64{1.0}})
	if err != nil {
		t.Fatal(err)
	}
	tm := stats.Timings
	if tm.IntraComp <= 0 || tm.Quant <= 0 || tm.Tier1 <= 0 {
		t.Fatalf("missing stage timings: %+v", tm)
	}
	if tm.Total() <= 0 {
		t.Fatal("total timing zero")
	}
	if stats.CodeBlocks == 0 {
		t.Fatal("no code blocks counted")
	}
	if p := tm.Profile(); p.Parallel <= 0 || p.Sequential <= 0 {
		t.Fatalf("profile %+v: both classes took time", p)
	}
	text := tm.Breakdown()
	for _, name := range EncStageNames {
		if !strings.Contains(text, name) {
			t.Fatalf("breakdown lacks stage %q:\n%s", name, text)
		}
	}
}

// TestStageSpansFitInWall: every stage is a wall span around its own
// dispatch, so the spans are disjoint sub-intervals of the call and their sum
// can never exceed the call's wall time — at any worker count.
func TestStageSpansFitInWall(t *testing.T) {
	pl := raster.RGB(raster.Synthetic(256, 256, 1), raster.Synthetic(256, 256, 2), raster.Synthetic(256, 256, 3))
	opts := Options{Kernel: dwt.Irr97, MCT: true, LayerBPP: []float64{0.5, 2}, TileW: 64, TileH: 64}
	enc, dec := NewEncoder(), NewDecoder()
	defer enc.Close()
	defer dec.Close()
	for _, workers := range []int{1, 4} {
		opts.Workers = workers
		t0 := time.Now()
		cs, stats, err := enc.EncodePlanar(pl, opts)
		wall := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		if sum := stats.Timings.Total(); sum <= 0 || sum > wall {
			t.Errorf("Workers=%d: encode spans sum to %v in a %v call", workers, sum, wall)
		}
		t0 = time.Now()
		if _, err := dec.DecodePlanarSource(t2.BytesSource(cs), DecodeOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		wall = time.Since(t0)
		if sum := dec.Stats().Timings.Total(); sum <= 0 || sum > wall {
			t.Errorf("Workers=%d: decode spans sum to %v in a %v call", workers, sum, wall)
		}
	}
}

func TestWorkersDefaultToGOMAXPROCS(t *testing.T) {
	if got, want := (Options{}).withDefaults().Workers, runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Options{}.Workers defaults to %d, want GOMAXPROCS = %d", got, want)
	}
}

// TestZeroOptionsSelectBlockedFilter: a caller who sets nothing gets the
// paper's improved vertical filter, in the codec and in the transform alike.
func TestZeroOptionsSelectBlockedFilter(t *testing.T) {
	for name, m := range map[string]dwt.VertMode{
		"Options{}":       Options{}.withDefaults().VertMode,
		"DecodeOptions{}": DecodeOptions{}.VertMode,
		"dwt.Strategy{}":  dwt.Strategy{}.VertMode,
	} {
		if m != dwt.VertBlocked {
			t.Errorf("%s selects the %v filter, want %v", name, m, dwt.VertBlocked)
		}
	}
}

func TestCodeBlockSizes(t *testing.T) {
	im := raster.Synthetic(128, 128, 13)
	for _, cb := range [][2]int{{16, 16}, {32, 32}, {64, 64}, {64, 16}} {
		cs, _, err := Encode(im, Options{Kernel: dwt.Rev53, CBW: cb[0], CBH: cb[1]})
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(cs, DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !raster.Equal(im, back) {
			t.Fatalf("cb %v: round trip failed", cb)
		}
	}
	if _, _, err := Encode(im, Options{CBW: 128}); err == nil {
		t.Fatal("want error for oversized code-block")
	}
}

func TestFewLevels(t *testing.T) {
	im := raster.Synthetic(64, 64, 14)
	for levels := 1; levels <= 6; levels++ {
		cs, _, err := Encode(im, Options{Kernel: dwt.Rev53, Levels: levels})
		if err != nil {
			t.Fatalf("levels %d: %v", levels, err)
		}
		back, err := Decode(cs, DecodeOptions{})
		if err != nil {
			t.Fatalf("levels %d: %v", levels, err)
		}
		if !raster.Equal(im, back) {
			t.Fatalf("levels %d: round trip failed", levels)
		}
	}
	// Outside the [0, 32] the decoder's COD check accepts, Levels is an
	// error, not a slice-bounds panic (-1) or an overflowed BandNorm plane.
	for _, levels := range []int{-1, 33, 40} {
		for _, k := range []dwt.Kernel{dwt.Rev53, dwt.Irr97} {
			if _, _, err := Encode(im, Options{Kernel: k, Levels: levels}); err == nil {
				t.Fatalf("%v levels %d: encoded without error", k, levels)
			}
		}
	}
}

func TestBPPAccuracy(t *testing.T) {
	// The achieved rate should be close to (and not above) the target.
	im := raster.Synthetic(256, 256, 15)
	for _, bpp := range []float64{0.25, 0.5, 1.0} {
		_, stats, err := Encode(im, Options{Kernel: dwt.Irr97, LayerBPP: []float64{bpp}})
		if err != nil {
			t.Fatal(err)
		}
		if stats.BPP > bpp*1.02+0.01 {
			t.Fatalf("target %.3f bpp, got %.3f", bpp, stats.BPP)
		}
		if stats.BPP < bpp*0.7 && !math.IsInf(stats.BPP, 0) {
			t.Fatalf("target %.3f bpp, got only %.3f (allocator underfilling)", bpp, stats.BPP)
		}
	}
}
