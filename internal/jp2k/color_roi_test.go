package jp2k

import (
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/metrics"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

func rgbPlanes(w, h int) (*raster.Image, *raster.Image, *raster.Image) {
	r := raster.Synthetic(w, h, 101)
	g := raster.Synthetic(w, h, 102)
	b := raster.Synthetic(w, h, 103)
	return r, g, b
}

func TestColorLosslessRoundTrip(t *testing.T) {
	r, g, b := rgbPlanes(96, 64)
	cs, stats, err := EncodePlanar(raster.RGB(r, g, b), Options{Kernel: dwt.Rev53, MCT: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bytes != len(cs) {
		t.Fatal("stats mismatch")
	}
	back, err := DecodePlanarSource(t2.BytesSource(cs), DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !raster.PlanarEqual(raster.RGB(r, g, b), back) {
		t.Fatal("color lossless round trip failed")
	}
}

func TestColorLosslessBeatsIndependentPlanes(t *testing.T) {
	// The RCT decorrelates the channels, so joint coding should not be
	// larger than coding R, G, B independently (correlated synthetic
	// content: same structure with different seeds is only mildly
	// correlated, so just require we are within a few percent).
	r, g, b := rgbPlanes(128, 128)
	// Build strongly correlated channels: G = base, R/B = base +- detail.
	for i := range g.Pix {
		r.Pix[i] = clamp8(g.Pix[i] + (r.Pix[i]-g.Pix[i])/8)
		b.Pix[i] = clamp8(g.Pix[i] + (b.Pix[i]-g.Pix[i])/8)
	}
	joint, _, err := EncodePlanar(raster.RGB(r, g, b), Options{Kernel: dwt.Rev53, MCT: true})
	if err != nil {
		t.Fatal(err)
	}
	var indep int
	for _, p := range []*raster.Image{r, g, b} {
		cs, _, err := Encode(p, Options{Kernel: dwt.Rev53})
		if err != nil {
			t.Fatal(err)
		}
		indep += len(cs)
	}
	if len(joint) > indep*105/100 {
		t.Fatalf("joint %d bytes vs independent %d; RCT not helping", len(joint), indep)
	}
}

func clamp8(v int32) int32 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}

func TestColorLossyQuality(t *testing.T) {
	r, g, b := rgbPlanes(128, 128)
	cs, stats, err := EncodePlanar(raster.RGB(r, g, b), Options{Kernel: dwt.Irr97, LayerBPP: []float64{1.5}, MCT: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BPP > 1.6 {
		t.Fatalf("bpp %.3f over budget", stats.BPP)
	}
	back, err := DecodePlanarSource(t2.BytesSource(cs), DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, orig := range []*raster.Image{r, g, b} {
		back.Comps[i].ClampTo8()
		psnr, _ := metrics.PSNR(orig, back.Comps[i], 255)
		if psnr < 27 {
			t.Fatalf("channel %d PSNR %.2f too low", i, psnr)
		}
	}
}

func TestColorContainerErrors(t *testing.T) {
	if _, err := DecodePlanarSource(t2.BytesSource([]byte("nope")), DecodeOptions{}); err == nil {
		t.Fatal("want error for bad magic")
	}
	r, g, b := rgbPlanes(32, 32)
	cs, _, err := EncodePlanar(raster.RGB(r, g, b), Options{Kernel: dwt.Rev53, MCT: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePlanarSource(t2.BytesSource(cs[:20]), DecodeOptions{}); err == nil {
		t.Fatal("want error for truncated container")
	}
	bad := raster.New(16, 16)
	if _, _, err := EncodePlanar(raster.RGB(r, g, bad), Options{MCT: true}); err == nil {
		t.Fatal("want error for mismatched planes")
	}
}

func TestROILosslessStaysLossless(t *testing.T) {
	im := raster.Synthetic(128, 128, 11)
	roi := &ROIRect{X0: 32, Y0: 32, X1: 96, Y1: 96}
	cs, _, err := Encode(im, Options{Kernel: dwt.Rev53, ROI: roi})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(cs, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(im, back) {
		t.Fatal("MAXSHIFT broke losslessness")
	}
}

func TestROIPrioritizesRegion(t *testing.T) {
	// At a starved bitrate, the ROI must decode much better than the
	// background — the whole point of MAXSHIFT.
	im := raster.Synthetic(256, 256, 12)
	roi := &ROIRect{X0: 96, Y0: 96, X1: 160, Y1: 160}
	cs, _, err := Encode(im, Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.3}, ROI: roi})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(cs, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	back.ClampTo8()
	roiSub, _ := im.SubImage(roi.X0, roi.Y0, roi.X1, roi.Y1)
	roiBack, _ := back.SubImage(roi.X0, roi.Y0, roi.X1, roi.Y1)
	roiPSNR, _ := metrics.PSNR(roiSub.Clone(), roiBack.Clone(), 255)

	bgSub, _ := im.SubImage(0, 0, 64, 64)
	bgBack, _ := back.SubImage(0, 0, 64, 64)
	bgPSNR, _ := metrics.PSNR(bgSub.Clone(), bgBack.Clone(), 255)

	if roiPSNR < bgPSNR+6 {
		t.Fatalf("ROI PSNR %.2f not well above background %.2f", roiPSNR, bgPSNR)
	}
}

func TestROIWithoutRegionMatchesPlain(t *testing.T) {
	// A nil ROI must leave the stream unchanged.
	im := raster.Synthetic(64, 64, 13)
	a, _, err := Encode(im, Options{Kernel: dwt.Rev53})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Encode(im, Options{Kernel: dwt.Rev53, ROI: nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("nil ROI changed the stream")
	}
}

func TestROIOnTiledImage(t *testing.T) {
	im := raster.Synthetic(128, 128, 14)
	roi := &ROIRect{X0: 50, Y0: 50, X1: 80, Y1: 80} // crosses tile borders
	cs, _, err := Encode(im, Options{Kernel: dwt.Rev53, TileW: 64, TileH: 64, ROI: roi})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(cs, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(im, back) {
		t.Fatal("tiled ROI lossless round trip failed")
	}
}
