package raster

import (
	"math"

	"pj2k/internal/core"
)

// xorshift64 is a tiny deterministic PRNG so synthetic workloads are
// reproducible across runs and hosts without pulling in math/rand's global
// state.
type xorshift64 uint64

func (s *xorshift64) next() uint64 {
	x := uint64(*s)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = xorshift64(x)
	return x
}

// float returns a uniform float64 in [0, 1).
func (s *xorshift64) float() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}

// Synthetic generates a deterministic 8-bit "natural" test image: a smooth
// illumination gradient, a few low-frequency blobs, oriented edges, and
// spatially low-pass-filtered noise. Natural images have a decaying power
// spectrum; the mix below provides one, which is what the rate-distortion
// experiments (Figs. 4, 5) depend on. seed selects the instance.
func Synthetic(width, height int, seed uint64) *Image {
	im := New(width, height)
	rng := xorshift64(seed*2654435761 + 0x9e3779b97f4a7c15)

	// Low-frequency blobs: random Gaussians.
	const nblobs = 12
	type blob struct{ cx, cy, sigma, amp float64 }
	blobs := make([]blob, nblobs)
	for i := range blobs {
		blobs[i] = blob{
			cx:    rng.float() * float64(width),
			cy:    rng.float() * float64(height),
			sigma: (0.05 + 0.20*rng.float()) * float64(min(width, height)),
			amp:   40*rng.float() - 20,
		}
	}
	// Oriented edge: a soft step across a random line.
	ex, ey := rng.float()*float64(width), rng.float()*float64(height)
	theta := rng.float() * math.Pi
	nx, ny := math.Cos(theta), math.Sin(theta)

	// The blob-and-edge phase reads only the parameters drawn above, so its
	// rows are independent: it runs over up to GOMAXPROCS contiguous row
	// bands on the shared pool, each sample computed exactly as a serial pass
	// would.
	fw, fh := float64(width), float64(height)
	rows := func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			row := im.Row(y)
			fy := float64(y)
			for x := 0; x < width; x++ {
				fx := float64(x)
				v := 110.0 + 60.0*fx/fw + 30.0*fy/fh // illumination gradient
				for _, b := range blobs {
					dx, dy := fx-b.cx, fy-b.cy
					d2 := (dx*dx + dy*dy) / (2 * b.sigma * b.sigma)
					if d2 < 12 {
						v += b.amp * math.Exp(-d2)
					}
				}
				d := (fx-ex)*nx + (fy-ey)*ny
				v += 25.0 * math.Tanh(d/3.0) // soft edge
				row[x] = int32(v)
			}
		}
	}
	core.Default().ForMax(core.Workers(0), height, rows)

	// Low-pass-filtered noise: one pass of a 3x3 box over white noise,
	// generated row-by-row with a two-row buffer to stay O(width).
	noise := make([][]float64, 3)
	for i := range noise {
		noise[i] = make([]float64, width+2)
	}
	fill := func(dst []float64) {
		for i := range dst {
			dst[i] = rng.float()*24 - 12
		}
	}
	fill(noise[0])
	fill(noise[1])
	fill(noise[2])
	for y := 0; y < height; y++ {
		row := im.Row(y)
		n0, n1, n2 := noise[0], noise[1], noise[2]
		for x := 0; x < width; x++ {
			s := n0[x] + n0[x+1] + n0[x+2] +
				n1[x] + n1[x+1] + n1[x+2] +
				n2[x] + n2[x+1] + n2[x+2]
			nv := int32(float64(row[x]) + s/9.0)
			if nv < 0 {
				nv = 0
			} else if nv > 255 {
				nv = 255
			}
			row[x] = nv
		}
		noise[0], noise[1], noise[2] = noise[1], noise[2], noise[0]
		fill(noise[2])
	}
	return im
}

// SyntheticRadiograph generates a deterministic 12-bit-style medical image:
// dark background, a bright elliptical "bone" with internal texture, used by
// the lossless-coding example.
func SyntheticRadiograph(width, height int, seed uint64) *Image {
	im := New(width, height)
	rng := xorshift64(seed ^ 0xfeedfacecafebeef)
	cx, cy := float64(width)/2, float64(height)/2
	rx, ry := float64(width)*0.32, float64(height)*0.40
	for y := 0; y < height; y++ {
		row := im.Row(y)
		for x := 0; x < width; x++ {
			dx := (float64(x) - cx) / rx
			dy := (float64(y) - cy) / ry
			d := dx*dx + dy*dy
			v := 180.0 // background tissue level (of 4095)
			if d < 1 {
				v = 2600 + 900*(1-d) + 120*math.Sin(float64(x)/7.0)*math.Cos(float64(y)/9.0)
			} else if d < 1.3 {
				v = 180 + (1.3-d)/0.3*1400
			}
			v += rng.float()*40 - 20
			if v < 0 {
				v = 0
			} else if v > 4095 {
				v = 4095
			}
			row[x] = int32(v)
		}
	}
	return im
}

// KPixelImage returns a synthetic image holding approximately kpix*1024
// pixels with a 1:1 aspect ratio, matching the paper's image-size axis
// (256, 1024, 4096, 16384 Kpixels). The side is rounded to a multiple of 32.
func KPixelImage(kpix int, seed uint64) *Image {
	side := int(math.Sqrt(float64(kpix) * 1024))
	side = (side / 32) * 32
	if side < 32 {
		side = 32
	}
	return Synthetic(side, side, seed)
}
