package jp2k

import (
	"math"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/metrics"
	"pj2k/internal/raster"
)

func TestDiscardLevelsDimensions(t *testing.T) {
	im := raster.Synthetic(200, 120, 21)
	cs, _, err := Encode(im, Options{Kernel: dwt.Rev53, Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d <= 4; d++ {
		back, err := Decode(cs, DecodeOptions{DiscardLevels: d})
		if err != nil {
			t.Fatalf("discard %d: %v", d, err)
		}
		wantW, wantH := 200, 120
		for i := 0; i < d; i++ {
			wantW, wantH = (wantW+1)/2, (wantH+1)/2
		}
		if back.Width != wantW || back.Height != wantH {
			t.Fatalf("discard %d: got %dx%d want %dx%d", d, back.Width, back.Height, wantW, wantH)
		}
	}
	// Beyond the stream's levels: clamps.
	back, err := Decode(cs, DecodeOptions{DiscardLevels: 9})
	if err != nil {
		t.Fatal(err)
	}
	if back.Width != 13 || back.Height != 8 {
		t.Fatalf("over-discard got %dx%d", back.Width, back.Height)
	}
}

func TestDiscardLevelsMatchesDownsampledTransform(t *testing.T) {
	// For the reversible path the 1-level-reduced decode must equal the LL
	// band of a 1-level forward transform (that is literally what the
	// stream stores).
	im := raster.Synthetic(128, 128, 22)
	cs, _, err := Encode(im, Options{Kernel: dwt.Rev53, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(cs, DecodeOptions{DiscardLevels: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := im.Clone()
	for i := range ref.Pix {
		ref.Pix[i] -= 128
	}
	dwt.Forward53(ref, 1, dwt.Strategy{VertMode: dwt.VertNaive, Workers: 1})
	ll, _ := ref.SubImage(0, 0, 64, 64)
	llc := ll.Clone()
	for i := range llc.Pix {
		llc.Pix[i] += 128
	}
	if !raster.Equal(back, llc) {
		t.Fatal("1-level reduced decode != LL band of the forward transform")
	}
}

func TestDiscardLevelsLossyLooksLikeImage(t *testing.T) {
	// The half-resolution lossy decode must correlate strongly with a
	// box-downsampled original (PSNR against simple 2x2 mean downsample).
	im := raster.Synthetic(256, 256, 23)
	cs, _, err := Encode(im, Options{Kernel: dwt.Irr97, LayerBPP: []float64{1.0}})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(cs, DecodeOptions{DiscardLevels: 1})
	if err != nil {
		t.Fatal(err)
	}
	back.ClampTo8()
	down := raster.New(128, 128)
	for y := 0; y < 128; y++ {
		for x := 0; x < 128; x++ {
			s := im.At(2*x, 2*y) + im.At(2*x+1, 2*y) + im.At(2*x, 2*y+1) + im.At(2*x+1, 2*y+1)
			down.Set(x, y, (s+2)/4)
		}
	}
	psnr, err := metrics.PSNR(down, back, 255)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(psnr) || psnr < 22 {
		t.Fatalf("half-resolution decode PSNR %.2f vs box downsample; too low", psnr)
	}
}

func TestDiscardLevelsTiled(t *testing.T) {
	im := raster.Synthetic(130, 70, 24)
	cs, _, err := Encode(im, Options{Kernel: dwt.Rev53, TileW: 64, TileH: 32, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(cs, DecodeOptions{DiscardLevels: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Reduced dims: columns 64,64,2 -> 32+32+1 = 65; rows 32,32,6 -> 16+16+3 = 35.
	if back.Width != 65 || back.Height != 35 {
		t.Fatalf("tiled reduced decode %dx%d, want 65x35", back.Width, back.Height)
	}
}

func TestDiscardWithLayersAndROI(t *testing.T) {
	im := raster.Synthetic(128, 128, 25)
	cs, _, err := Encode(im, Options{
		Kernel:   dwt.Irr97,
		LayerBPP: []float64{0.25, 1.0},
		ROI:      &ROIRect{X0: 32, Y0: 32, X1: 96, Y1: 96},
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(cs, DecodeOptions{DiscardLevels: 2, MaxLayers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if back.Width != 32 || back.Height != 32 {
		t.Fatalf("got %dx%d", back.Width, back.Height)
	}
}
