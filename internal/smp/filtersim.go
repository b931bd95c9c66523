package smp

import (
	"pj2k/internal/cachesim"
	"pj2k/internal/dwt"
)

// FilterSpec describes one multi-level wavelet filtering workload for the
// cache analysis: the image geometry (Stride in samples — padding the stride
// is the paper's first cache fix) and the vertical strategy.
type FilterSpec struct {
	W, H, Stride int
	Levels       int
	Kernel       dwt.Kernel
	Mode         dwt.VertMode
	BlockWidth   int // for VertBlocked; <=0 selects modelBlockWidth
}

// modelBlockWidth is the column-block width the paper-machine figures are
// computed at. It is the model's own constant, so retuning the codec's own
// default (dwt.Strategy.BlockWidth unset) does not move Figs. 6-13.
const modelBlockWidth = 32

const bytesPerSample = 4

// kernel shape: window length of the column filter and the number of
// row sweeps of the lifting implementation.
func (s FilterSpec) shape() (window, sweeps int, opsPerElemDir float64) {
	if s.Kernel == dwt.Irr97 {
		return 9, 4, 8
	}
	return 5, 2, 4
}

func (s FilterSpec) blockWidth() int {
	if s.BlockWidth <= 0 {
		return modelBlockWidth
	}
	return s.BlockWidth
}

func levelDims(w, h, n int) (int, int) {
	for i := 0; i < n; i++ {
		w = (w + 1) / 2
		h = (h + 1) / 2
	}
	return w, h
}

// VerticalWork estimates the operations and cache misses of the vertical
// filtering of all decomposition levels under the spec's strategy, by
// running the filter's exact access pattern through a simulated cache. Long
// dimensions are sampled (the pattern is periodic across columns) and misses
// are scaled back up.
func VerticalWork(cfg cachesim.Config, s FilterSpec) Work {
	window, sweeps, opsPerElem := s.shape()
	var work Work
	for l := 0; l < s.Levels; l++ {
		cw, ch := levelDims(s.W, s.H, l)
		if ch < 2 {
			continue
		}
		work.Ops += float64(cw) * float64(ch) * opsPerElem
		c := cachesim.New(cfg)
		switch s.Mode {
		case dwt.VertNaive:
			// Column-at-a-time filtering: for every output sample the
			// window rows of that column are read, then the sample written.
			sample := cw
			if sample > 256 {
				sample = 256
			}
			for x := 0; x < sample; x++ {
				for r := 0; r < ch; r++ {
					for k := -window / 2; k <= window/2; k++ {
						rr := clampInt(r+k, 0, ch-1)
						c.Access(uint64((rr*s.Stride + x) * bytesPerSample))
					}
					c.Access(uint64((r*s.Stride + x) * bytesPerSample))
				}
			}
			_, misses := c.Stats()
			work.Misses += float64(misses) * float64(cw) / float64(sample)
		case dwt.VertBlocked:
			// Improved filtering: row-wise sweeps over blocks of adjacent
			// columns, so loaded lines are fully consumed.
			bw := s.blockWidth()
			nblocks := (cw + bw - 1) / bw
			sample := nblocks
			if sample > 8 {
				sample = 8
			}
			for b := 0; b < sample; b++ {
				x0 := b * bw
				x1 := x0 + bw
				if x1 > cw {
					x1 = cw
				}
				for sweep := 0; sweep < sweeps; sweep++ {
					for r := 0; r < ch; r++ {
						for _, dr := range [3]int{-1, 0, 1} {
							rr := clampInt(r+dr, 0, ch-1)
							for x := x0; x < x1; x++ {
								c.Access(uint64((rr*s.Stride + x) * bytesPerSample))
							}
						}
					}
				}
			}
			_, misses := c.Stats()
			work.Misses += float64(misses) * float64(nblocks) / float64(sample)
		}
	}
	return work
}

// HorizontalWork estimates the row-filtering work; rows are contiguous, so
// this is the cache-friendly baseline the paper compares the vertical filter
// against.
func HorizontalWork(cfg cachesim.Config, s FilterSpec) Work {
	_, sweeps, opsPerElem := s.shape()
	var work Work
	for l := 0; l < s.Levels; l++ {
		cw, ch := levelDims(s.W, s.H, l)
		if cw < 2 {
			continue
		}
		work.Ops += float64(cw) * float64(ch) * opsPerElem
		c := cachesim.New(cfg)
		sample := ch
		if sample > 64 {
			sample = 64
		}
		for y := 0; y < sample; y++ {
			for sweep := 0; sweep < sweeps; sweep++ {
				for x := 0; x < cw; x++ {
					c.Access(uint64((y*s.Stride + x) * bytesPerSample))
				}
			}
		}
		_, misses := c.Stats()
		work.Misses += float64(misses) * float64(ch) / float64(sample)
	}
	return work
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
