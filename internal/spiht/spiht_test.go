package spiht

import (
	"testing"

	"pj2k/internal/metrics"
	"pj2k/internal/raster"
)

func TestTreeStructure(t *testing.T) {
	c := &codec{n: 64, levels: 3, rw: 8}
	// Top-left of each LL 2x2 group has no children.
	if _, ok := c.children(0, 0); ok {
		t.Fatal("(0,0) must have no children")
	}
	if _, ok := c.children(2, 4); ok {
		t.Fatal("(even,even) LL must have no children")
	}
	// TR root -> HL band.
	kids, ok := c.children(1, 0)
	if !ok {
		t.Fatal("(1,0) must have children")
	}
	if kids[0].x != 8 || kids[0].y != 0 {
		t.Fatalf("TR root children at (%d,%d), want (8,0)", kids[0].x, kids[0].y)
	}
	// BL root -> LH band.
	kids, _ = c.children(0, 1)
	if kids[0].x != 0 || kids[0].y != 8 {
		t.Fatalf("BL root children at (%d,%d), want (0,8)", kids[0].x, kids[0].y)
	}
	// BR root -> HH band.
	kids, _ = c.children(1, 1)
	if kids[0].x != 8 || kids[0].y != 8 {
		t.Fatalf("BR root children at (%d,%d), want (8,8)", kids[0].x, kids[0].y)
	}
	// Mid-pyramid coefficient: quadruple position.
	kids, ok = c.children(10, 2)
	if !ok || kids[0].x != 20 || kids[0].y != 4 {
		t.Fatalf("pyramid children wrong: %v ok=%v", kids, ok)
	}
	// Finest level has no children.
	if _, ok := c.children(40, 3); ok {
		t.Fatal("finest-level coefficient must be a leaf")
	}
}

func TestTreeCoversImage(t *testing.T) {
	// Every non-LL coefficient must be reachable from exactly one root.
	c := &codec{n: 32, levels: 3, rw: 4}
	seen := make([]int, 32*32)
	var walk func(x, y int16)
	walk = func(x, y int16) {
		kids, ok := c.children(x, y)
		if !ok {
			return
		}
		for _, k := range kids {
			seen[int(k.y)*32+int(k.x)]++
			walk(k.x, k.y)
		}
	}
	for y := int16(0); y < 4; y++ {
		for x := int16(0); x < 4; x++ {
			walk(x, y)
		}
	}
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			want := 1
			if x < 4 && y < 4 {
				want = 0 // LL is not anyone's child
			}
			if seen[y*32+x] != want {
				t.Fatalf("(%d,%d) covered %d times, want %d", x, y, seen[y*32+x], want)
			}
		}
	}
}

func TestRoundTripQuality(t *testing.T) {
	im := raster.Synthetic(256, 256, 1)
	for _, tc := range []struct {
		bpp     float64
		minPSNR float64
	}{
		{2.0, 38}, {1.0, 34}, {0.5, 31}, {0.25, 28},
	} {
		budget := int(tc.bpp * 256 * 256 / 8)
		data, err := Encode(im, 5, budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > budget+16 {
			t.Fatalf("%.2f bpp: stream %d exceeds budget %d", tc.bpp, len(data), budget)
		}
		back, err := Decode(data, 256, 5)
		if err != nil {
			t.Fatal(err)
		}
		psnr, _ := metrics.PSNR(im, back, 255)
		if psnr < tc.minPSNR {
			t.Fatalf("%.2f bpp: PSNR %.2f below %.1f", tc.bpp, psnr, tc.minPSNR)
		}
	}
}

func TestEmbeddedPrefixProperty(t *testing.T) {
	// Decoding a prefix of the stream must give a valid, lower-quality
	// image: SPIHT streams are embedded.
	im := raster.Synthetic(128, 128, 2)
	data, err := Encode(im, 4, 128*128)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, frac := range []float64{0.1, 0.25, 0.5, 1.0} {
		cut := int(float64(len(data)) * frac)
		back, err := Decode(data[:cut], 128, 4)
		if err != nil {
			t.Fatalf("frac %.2f: %v", frac, err)
		}
		psnr, _ := metrics.PSNR(im, back, 255)
		if psnr < prev-0.5 {
			t.Fatalf("prefix %.2f: PSNR %.2f fell below %.2f", frac, psnr, prev)
		}
		prev = psnr
	}
	if prev < 35 {
		t.Fatalf("full-stream PSNR %.2f too low", prev)
	}
}

func TestGeometryErrors(t *testing.T) {
	im := raster.Synthetic(100, 100, 3) // not a power of two
	if _, err := Encode(im, 4, 1000); err == nil {
		t.Fatal("want error for non-power-of-two image")
	}
	rect := raster.Synthetic(64, 32, 3)
	if _, err := Encode(rect, 3, 1000); err == nil {
		t.Fatal("want error for non-square image")
	}
	if _, err := Decode([]byte{}, 64, 3); err == nil {
		t.Fatal("want error for empty stream")
	}
}

func TestFlatImageCodesTiny(t *testing.T) {
	im := raster.New(64, 64)
	for i := range im.Pix {
		im.Pix[i] = 128
	}
	data, err := Encode(im, 4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 600 {
		t.Fatalf("flat image coded to %d bytes", len(data))
	}
	back, err := Decode(data, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	mse, _ := metrics.MSE(im, back)
	if mse > 1 {
		t.Fatalf("flat image MSE %.3f", mse)
	}
}
