package metrics

import (
	"math"
	"testing"

	"pj2k/internal/raster"
)

func TestMSEAndPSNR(t *testing.T) {
	a := raster.New(4, 4)
	b := raster.New(4, 4)
	if m, err := mse(a, b); err != nil || m != 0 {
		t.Fatalf("mse %v err %v", m, err)
	}
	if p, _ := PSNR(a, b, 255); !math.IsInf(p, 1) {
		t.Fatalf("identical images PSNR %v", p)
	}
	for i := range b.Pix {
		b.Pix[i] = 10
	}
	m, err := mse(a, b)
	if err != nil || m != 100 {
		t.Fatalf("mse %v err %v", m, err)
	}
	p, _ := PSNR(a, b, 255)
	want := 10 * math.Log10(255*255/100.0)
	if math.Abs(p-want) > 1e-9 {
		t.Fatalf("PSNR %v want %v", p, want)
	}
}

func TestMSESizeMismatch(t *testing.T) {
	if _, err := mse(raster.New(4, 4), raster.New(5, 4)); err == nil {
		t.Fatal("want error")
	}
}

func TestBlockinessDetectsGrid(t *testing.T) {
	// An image with hard steps at 32-pixel boundaries must score far higher
	// than a smooth one.
	blocky := raster.New(128, 128)
	for y := 0; y < 128; y++ {
		row := blocky.Row(y)
		for x := 0; x < 128; x++ {
			row[x] = int32(((x/32)*37 + (y/32)*53) % 200)
		}
	}
	smooth := raster.New(128, 128)
	for y := 0; y < 128; y++ {
		row := smooth.Row(y)
		for x := 0; x < 128; x++ {
			row[x] = int32(x + y)
		}
	}
	bs := Blockiness(blocky, 32)
	ss := Blockiness(smooth, 32)
	if bs < 10*math.Max(ss, 0.1) {
		t.Fatalf("blockiness %.2f vs smooth %.2f; grid not detected", bs, ss)
	}
}

func TestBlockinessDegenerate(t *testing.T) {
	im := raster.New(16, 16)
	if Blockiness(im, 1) != 0 || Blockiness(im, 16) != 0 {
		t.Fatal("degenerate periods must return 0")
	}
}
