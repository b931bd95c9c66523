// Quickstart: compress and decompress an image with the parallel JPEG2000
// codec, losslessly and at a fixed bitrate, and print what happened.
package main

import (
	"fmt"
	"log"

	"pj2k/internal/dwt"
	"pj2k/internal/jp2k"
	"pj2k/internal/metrics"
	"pj2k/internal/raster"
)

func main() {
	// A deterministic synthetic photograph; any *raster.Image works (see
	// raster.ReadPNM for file input).
	im := raster.Synthetic(512, 512, 7)

	// --- Lossless: reversible 5/3 transform, every coding pass kept.
	cs, stats, err := jp2k.Encode(im, jp2k.Options{
		Kernel: dwt.Rev53,
	})
	if err != nil {
		log.Fatal(err)
	}
	back, err := jp2k.Decode(cs, jp2k.DecodeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lossless: %d -> %d bytes (%.2f:1), identical=%v\n",
		im.Width*im.Height, stats.Bytes,
		float64(im.Width*im.Height)/float64(stats.Bytes),
		raster.Equal(im, back))

	// --- Lossy: irreversible 9/7 at 0.5 bits per pixel.
	cs, stats, err = jp2k.Encode(im, jp2k.Options{
		Kernel:   dwt.Irr97,
		LayerBPP: []float64{0.5},
	})
	if err != nil {
		log.Fatal(err)
	}
	back, err = jp2k.Decode(cs, jp2k.DecodeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	back.ClampTo8()
	psnr, _ := metrics.PSNR(im, back, 255)
	fmt.Printf("lossy:    %.3f bpp, PSNR %.2f dB\n", stats.BPP, psnr)

	// Where the encoder spent its time (the paper's Fig. 3 decomposition).
	fmt.Print("stages:\n", stats.Timings.Breakdown())
}
