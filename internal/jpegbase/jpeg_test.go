package jpegbase

import (
	"math"
	"math/rand"
	"testing"

	"pj2k/internal/metrics"
	"pj2k/internal/raster"
)

func TestDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		var in, freq, back [64]float64
		for i := range in {
			in[i] = rng.Float64()*255 - 128
		}
		fdct8x8(&in, &freq)
		idct8x8(&freq, &back)
		for i := range in {
			if math.Abs(in[i]-back[i]) > 1e-9 {
				t.Fatalf("trial %d sample %d: %g vs %g", trial, i, in[i], back[i])
			}
		}
	}
}

func TestDCTConstantBlock(t *testing.T) {
	var in, freq [64]float64
	for i := range in {
		in[i] = 100
	}
	fdct8x8(&in, &freq)
	if math.Abs(freq[0]-800) > 1e-9 { // DC = 8 * mean
		t.Fatalf("DC = %g, want 800", freq[0])
	}
	for i := 1; i < 64; i++ {
		if math.Abs(freq[i]) > 1e-9 {
			t.Fatalf("AC %d = %g, want 0", i, freq[i])
		}
	}
}

func TestQualityScaling(t *testing.T) {
	q50 := scaledQuant(50)
	if q50 != stdLuminanceQuant {
		t.Fatal("quality 50 must reproduce the standard table")
	}
	q90, q10 := scaledQuant(90), scaledQuant(10)
	for i := range q90 {
		if q90[i] > q10[i] {
			t.Fatalf("entry %d: q90 %d > q10 %d", i, q90[i], q10[i])
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, sz := range [][2]int{{8, 8}, {16, 16}, {64, 64}, {100, 60}, {33, 41}} {
		im := raster.Synthetic(sz[0], sz[1], 3)
		data := Encode(im, 90)
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("size %v: %v", sz, err)
		}
		if back.Width != im.Width || back.Height != im.Height {
			t.Fatalf("size %v: got %dx%d", sz, back.Width, back.Height)
		}
		psnr, err := metrics.PSNR(im, back, 255)
		if err != nil {
			t.Fatal(err)
		}
		if psnr < 32 {
			t.Fatalf("size %v: PSNR %.2f dB too low at q90", sz, psnr)
		}
	}
}

func TestQualityMonotone(t *testing.T) {
	im := raster.Synthetic(128, 128, 5)
	prevPSNR := 0.0
	prevSize := 0
	for _, q := range []int{10, 30, 50, 75, 95} {
		data := Encode(im, q)
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("q%d: %v", q, err)
		}
		psnr, _ := metrics.PSNR(im, back, 255)
		if psnr < prevPSNR-0.2 {
			t.Fatalf("PSNR fell from %.2f to %.2f at q%d", prevPSNR, psnr, q)
		}
		if len(data) < prevSize {
			t.Fatalf("size fell from %d to %d at q%d", prevSize, len(data), q)
		}
		prevPSNR, prevSize = psnr, len(data)
	}
	if prevPSNR < 40 {
		t.Fatalf("q95 PSNR %.2f too low", prevPSNR)
	}
}

func TestCompressionRatio(t *testing.T) {
	im := raster.Synthetic(256, 256, 7)
	data := Encode(im, 75)
	raw := 256 * 256
	if len(data) >= raw/2 {
		t.Fatalf("q75 stream %d bytes vs raw %d; not compressing", len(data), raw)
	}
}

func TestMarkerStructure(t *testing.T) {
	im := raster.Synthetic(16, 16, 9)
	data := Encode(im, 75)
	if data[0] != 0xFF || data[1] != 0xD8 {
		t.Fatal("missing SOI")
	}
	if data[len(data)-2] != 0xFF || data[len(data)-1] != 0xD9 {
		t.Fatal("missing EOI")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{0x00}); err == nil {
		t.Fatal("want error for garbage")
	}
	if _, err := Decode([]byte{0xFF, 0xD8, 0xFF, 0xFE, 0x00, 0x02}); err == nil {
		t.Fatal("want error for unsupported marker")
	}
}

func TestFlatImage(t *testing.T) {
	im := raster.New(32, 32)
	for i := range im.Pix {
		im.Pix[i] = 128
	}
	data := Encode(im, 75)
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	// At peak 1, PSNR is -10·log10(MSE): negative exactly when MSE > 1.
	if psnr, _ := metrics.PSNR(im, back, 1); psnr < 0 {
		t.Fatalf("flat image PSNR %.3f dB at peak 1 (MSE above 1)", psnr)
	}
}
