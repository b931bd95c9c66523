// Color example: three-component coding with the inter-component transforms
// of the paper's Fig. 1 pipeline — the reversible color transform (RCT) for
// lossless RGB and the YCbCr rotation (ICT) for lossy coding — plus
// region-of-interest coding and resolution-scalable decoding. Color images
// are standard Csiz=3 codestreams (EncodePlanar with MCT on), so every
// single-codestream capability — windowed decode, layer truncation, the
// serving subsystem — works on them directly. The program exits non-zero
// when the lossless round trip is not exact.
package main

import (
	"fmt"
	"log"
	"os"

	"pj2k/internal/dwt"
	"pj2k/internal/jp2k"
	"pj2k/internal/metrics"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

func main() {
	// Correlated RGB planes (synthetic scene with per-channel tinting).
	g := raster.Synthetic(256, 256, 77)
	r, b := g.Clone(), g.Clone()
	for i := range g.Pix {
		r.Pix[i] = clamp(g.Pix[i] + int32(i%31) - 15)
		b.Pix[i] = clamp(g.Pix[i] - int32(i%23) + 11)
	}

	// Lossless RGB via the reversible color transform.
	cs, stats, err := jp2k.EncodePlanar(raster.RGB(r, g, b), jp2k.Options{Kernel: dwt.Rev53, MCT: true})
	if err != nil {
		log.Fatal(err)
	}
	rgb, err := jp2k.DecodePlanarSource(t2.BytesSource(cs), jp2k.DecodeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	exact := raster.Equal(r, rgb.Comps[0]) && raster.Equal(g, rgb.Comps[1]) && raster.Equal(b, rgb.Comps[2])
	fmt.Printf("lossless RGB: %d bytes (%.2f:1), exact=%v\n",
		stats.Bytes, float64(3*256*256)/float64(stats.Bytes), exact)
	if !exact {
		fmt.Fprintln(os.Stderr, "lossless RGB round trip is not exact")
		os.Exit(1)
	}

	// Lossy RGB at 1.0 bpp total via the YCbCr rotation.
	cs, stats, err = jp2k.EncodePlanar(raster.RGB(r, g, b), jp2k.Options{Kernel: dwt.Irr97, LayerBPP: []float64{1.0}, MCT: true})
	if err != nil {
		log.Fatal(err)
	}
	rgb, err = jp2k.DecodePlanarSource(t2.BytesSource(cs), jp2k.DecodeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range rgb.Comps {
		c.ClampTo8()
	}
	pr, _ := metrics.PSNR(r, rgb.Comps[0], 255)
	pg, _ := metrics.PSNR(g, rgb.Comps[1], 255)
	pb, _ := metrics.PSNR(b, rgb.Comps[2], 255)
	fmt.Printf("lossy RGB @ %.2f bpp: PSNR R %.1f / G %.1f / B %.1f dB\n", stats.BPP, pr, pg, pb)

	// Region of interest: the center decodes at high fidelity even when the
	// overall rate is starved.
	gray := raster.Synthetic(256, 256, 78)
	roi := &jp2k.ROIRect{X0: 96, Y0: 96, X1: 160, Y1: 160}
	cs2, _, err := jp2k.Encode(gray, jp2k.Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.3}, ROI: roi})
	if err != nil {
		log.Fatal(err)
	}
	back, err := jp2k.Decode(cs2, jp2k.DecodeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	back.ClampTo8()
	roiIm, _ := gray.SubImage(roi.X0, roi.Y0, roi.X1, roi.Y1)
	roiBack, _ := back.SubImage(roi.X0, roi.Y0, roi.X1, roi.Y1)
	pROI, _ := metrics.PSNR(roiIm.Clone(), roiBack.Clone(), 255)
	pAll, _ := metrics.PSNR(gray, back, 255)
	fmt.Printf("ROI @ 0.3 bpp: region %.1f dB vs whole image %.1f dB\n", pROI, pAll)

	// Resolution scalability: thumbnails straight from the codestream.
	for d := 0; d <= 3; d++ {
		thumb, err := jp2k.Decode(cs2, jp2k.DecodeOptions{DiscardLevels: d})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("discard %d level(s): %dx%d\n", d, thumb.Width, thumb.Height)
	}
}

func clamp(v int32) int32 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}
