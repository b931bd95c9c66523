// Medical imaging example: lossless compression of a 12-bit radiograph with
// the reversible 5/3 path (diagnostic imagery cannot tolerate loss), plus a
// lossy preview layer for fast remote viewing — the layered-stream use case
// JPEG2000 was designed for.
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
	// A deterministic 12-bit synthetic radiograph (values 0..4095).
	im := raster.SyntheticRadiograph(512, 512, 2026)

	// Lossless archive copy.
	cs, stats, err := jp2k.Encode(im, jp2k.Options{
		Kernel:   dwt.Rev53,
		BitDepth: 12,
	})
	if err != nil {
		log.Fatal(err)
	}
	back, err := jp2k.Decode(cs, jp2k.DecodeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if !raster.Equal(im, back) {
		log.Fatal("medical archive MUST be bit-exact and is not")
	}
	raw := im.Width * im.Height * 2 // 12-bit stored as 2 bytes
	fmt.Printf("archive: %d -> %d bytes (%.2f:1), bit-exact\n",
		raw, stats.Bytes, float64(raw)/float64(stats.Bytes))

	// Layered lossy stream: a thin preview layer a viewer can render first,
	// refined by further layers up to high fidelity.
	cs, _, err = jp2k.Encode(im, jp2k.Options{
		Kernel:   dwt.Irr97,
		BitDepth: 12,
		LayerBPP: []float64{0.25, 1.0, 3.0},
	})
	if err != nil {
		log.Fatal(err)
	}
	for layers := 1; layers <= 3; layers++ {
		prev, err := jp2k.Decode(cs, jp2k.DecodeOptions{MaxLayers: layers})
		if err != nil {
			log.Fatal(err)
		}
		psnr, _ := metrics.PSNR(im, prev, 4095)
		fmt.Printf("preview with %d layer(s): PSNR %.2f dB\n", layers, psnr)
	}
}
