// Tiledstream example: why the paper rejects tile-based parallelization.
// Encodes the same image at the same bitrate with progressively smaller
// tiles — the work partition a naive "one tile per CPU" scheme would use —
// and prints the resulting quality loss and blocking artifacts (Figs. 4/5).
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
	im := raster.Synthetic(512, 512, 31)
	const bpp = 0.25
	fmt.Printf("512x512 @ %.2f bpp\n\n%-18s %-10s %s\n", bpp, "tiling", "PSNR(dB)", "blockiness at tile grid")
	for _, tile := range []int{0, 256, 128, 64, 32} {
		opts := jp2k.Options{Kernel: dwt.Irr97, LayerBPP: []float64{bpp}}
		label := "whole image"
		if tile > 0 {
			opts.TileW, opts.TileH = tile, tile
			label = fmt.Sprintf("%dx%d tiles", tile, tile)
		}
		cs, _, err := jp2k.Encode(im, opts)
		if err != nil {
			log.Fatal(err)
		}
		back, err := jp2k.Decode(cs, jp2k.DecodeOptions{})
		if err != nil {
			log.Fatal(err)
		}
		back.ClampTo8()
		psnr, _ := metrics.PSNR(im, back, 255)
		block := 0.0
		if tile > 0 {
			block = metrics.Blockiness(back, tile)
		}
		fmt.Printf("%-18s %-10.2f %.3f\n", label, psnr, block)
	}
	fmt.Println("\nconclusion: partitioning work by tiles buys parallelism at a")
	fmt.Println("visible quality cost; the paper parallelizes the global DWT and")
	fmt.Println("the code-block coding instead (see examples/scaling).")
}
