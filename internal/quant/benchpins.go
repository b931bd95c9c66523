package quant

import "pj2k/internal/dwt"

// Kept for bench/ only; deleted in the benchmark PR (ROADMAP item 7).

// Inverse dequantizes integers back into float coefficients with the
// standard half-step midpoint bias for nonzero values (bit-plane truncation
// offsets at coarser granularity are already applied by the tier-1 decoder).
// It runs serially and allocates nothing; workers is accepted and ignored
// (the decoder dequantizes in tier-1's into-plane write, per block).
func Inverse(src []int32, srcStride int, b dwt.Subband, step float64, dst []float64, stride, workers int) {
	for y := 0; y < b.Height(); y++ {
		drow := dst[(b.Y0+y)*stride+b.X0:]
		for x, v := range src[y*srcStride:][:b.Width()] {
			drow[x] = Dequant(v, step)
		}
	}
}
