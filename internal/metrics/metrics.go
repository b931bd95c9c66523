// Package metrics provides the image-quality measures the paper's evaluation
// reports: MSE/PSNR for the rate-distortion curves (Fig. 5) and a blockiness
// measure quantifying the tiling artifacts shown subjectively in Fig. 4.
package metrics

import (
	"fmt"
	"math"

	"pj2k/internal/raster"
)

// mse returns the mean squared error between two equally sized images.
func mse(a, b *raster.Image) (float64, error) {
	if a.Width != b.Width || a.Height != b.Height {
		return 0, fmt.Errorf("metrics: size mismatch %dx%d vs %dx%d", a.Width, a.Height, b.Width, b.Height)
	}
	var sum float64
	for y := 0; y < a.Height; y++ {
		ra, rb := a.Row(y), b.Row(y)
		for x := range ra {
			d := float64(ra[x] - rb[x])
			sum += d * d
		}
	}
	return sum / float64(a.Width*a.Height), nil
}

// PSNR returns the peak signal-to-noise ratio in dB for the given peak value
// (255 for 8-bit imagery). Identical images give +Inf.
func PSNR(a, b *raster.Image, peak float64) (float64, error) {
	m, err := mse(a, b)
	if err != nil {
		return 0, err
	}
	if m == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(peak*peak/m), nil
}

// Blockiness measures mean absolute intensity discontinuity across the given
// grid period, minus the discontinuity at non-grid positions; near zero for
// artifact-free images and increasingly positive as tile-boundary artifacts
// appear (the Fig. 4 effect, quantified).
func Blockiness(im *raster.Image, period int) float64 {
	if period < 2 || period >= im.Width {
		return 0
	}
	var gridSum, offSum float64
	var gridN, offN int
	for y := 0; y < im.Height; y++ {
		row := im.Row(y)
		for x := 1; x < im.Width; x++ {
			d := math.Abs(float64(row[x] - row[x-1]))
			if x%period == 0 {
				gridSum += d
				gridN++
			} else {
				offSum += d
				offN++
			}
		}
	}
	for x := 0; x < im.Width; x++ {
		for y := 1; y < im.Height; y++ {
			d := math.Abs(float64(im.At(x, y) - im.At(x, y-1)))
			if y%period == 0 {
				gridSum += d
				gridN++
			} else {
				offSum += d
				offN++
			}
		}
	}
	if gridN == 0 || offN == 0 {
		return 0
	}
	return gridSum/float64(gridN) - offSum/float64(offN)
}
