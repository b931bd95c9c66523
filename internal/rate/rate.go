// Package rate implements the PCRD-opt rate allocation of EBCOT/JPEG2000:
// each code-block's coding passes form rate-distortion points; the allocator
// keeps each block's convex hull and fills the byte budget globally in order
// of decreasing distortion-rate slope, which is the paper's "sophisticated
// optimization strategy for optimal rate/distortion performance". This stage
// is one of the intrinsically sequential parts of the pipeline (Fig. 3's
// "R/D allocation").
package rate

import (
	"math"
	"slices"
)

// BlockPasses summarizes one code-block for the allocator.
type BlockPasses struct {
	Rates []int     // cumulative segment bytes through each pass
	Dist  []float64 // distortion reduction of each pass (image-domain MSE units)
	// Terminal, when non-nil, restricts the candidate truncation points to the
	// passes marked true (the distortion of skipped passes accrues to the next
	// candidate). Terminating tier-1 modes use it to truncate on codeword
	// segment boundaries, where the signalled byte rates are exact rather than
	// margined estimates. Nil admits every pass, the default.
	Terminal []bool
}

// segment is one convex-hull edge of a block's R-D curve.
type segment struct {
	block  int
	passes int // cumulative passes once this segment is included
	bytes  int // rate delta of this segment
	slope  float64
}

type rdPoint struct {
	passes int
	rate   int
	dist   float64
}

// slopeBetween returns the distortion-rate slope from a to b (+Inf for free
// improvements).
func slopeBetween(a, b rdPoint) float64 {
	dr := b.rate - a.rate
	if dr <= 0 {
		return math.Inf(1)
	}
	return (b.dist - a.dist) / float64(dr)
}

// hull appends the convex-hull segments for one block to a.segs, slopes
// strictly decreasing. Individual pass distortion deltas may be negative
// (magnitude refinement can transiently worsen the midpoint reconstruction),
// so points that do not improve on the current hull top are skipped.
func (a *Allocator) hull(b BlockPasses, blockIdx int) {
	a.st = a.st[:0]
	a.st = append(a.st, rdPoint{0, 0, 0})
	st := a.st
	cum := 0.0
	for k := range b.Rates {
		cum += b.Dist[k]
		if b.Terminal != nil && !b.Terminal[k] {
			continue // not a segment boundary: never a truncation point
		}
		p := rdPoint{k + 1, b.Rates[k], cum}
		if p.dist <= st[len(st)-1].dist {
			continue // no distortion improvement: never a truncation point
		}
		for len(st) >= 2 && slopeBetween(st[len(st)-1], p) >= slopeBetween(st[len(st)-2], st[len(st)-1]) {
			st = st[:len(st)-1]
		}
		st = append(st, p)
	}
	a.st = st
	for i := 1; i < len(st); i++ {
		a.segs = append(a.segs, segment{
			block:  blockIdx,
			passes: st[i].passes,
			bytes:  st[i].rate - st[i-1].rate,
			slope:  slopeBetween(st[i-1], st[i]),
		})
	}
}

// Allocation maps layers to cumulative pass counts per block.
type Allocation struct {
	// NPasses[layer][block] is the number of coding passes of block included
	// through that layer (cumulative).
	NPasses [][]int
	// BodyBytes[layer] is the cumulative body size through that layer.
	BodyBytes []int
}

// Allocator runs PCRD allocations with reusable scratch buffers, so the
// per-encode hull and segment storage is paid once per pooled encoder rather
// than per call. The zero value is ready for use; an Allocator is not safe
// for concurrent use. The returned Allocation is freshly allocated and stays
// valid across subsequent calls. Its slice headers are rewritten for every
// block, so parallel allocators must not sit side by side in one slice: hold
// each by value inside its worker's own state, as jp2k does.
type Allocator struct {
	segs []segment
	st   []rdPoint
	cur  []int
}

// Allocate fills the cumulative layer budgets (body bytes) with hull segments
// in globally decreasing slope order. Budgets beyond the total available data
// simply include everything.
func Allocate(blocks []BlockPasses, layerBudgets []int) Allocation {
	var a Allocator
	return a.Allocate(blocks, layerBudgets)
}

// Allocate is the scratch-reusing form of the package-level Allocate.
func (a *Allocator) Allocate(blocks []BlockPasses, layerBudgets []int) Allocation {
	a.segs = a.segs[:0]
	for i, b := range blocks {
		a.hull(b, i)
	}
	segs := a.segs
	// Stable sort by decreasing slope keeps each block's segments in pass
	// order (their slopes decrease strictly within a block).
	slices.SortStableFunc(segs, func(x, y segment) int {
		switch {
		case x.slope > y.slope:
			return -1
		case x.slope < y.slope:
			return 1
		default:
			return 0
		}
	})

	alloc := Allocation{
		NPasses:   make([][]int, len(layerBudgets)),
		BodyBytes: make([]int, len(layerBudgets)),
	}
	if cap(a.cur) < len(blocks) {
		a.cur = make([]int, len(blocks))
	}
	cur := a.cur[:len(blocks)]
	clear(cur)
	bytes := 0
	si := 0
	for li, budget := range layerBudgets {
		for si < len(segs) && bytes+segs[si].bytes <= budget {
			cur[segs[si].block] = segs[si].passes
			bytes += segs[si].bytes
			si++
		}
		alloc.NPasses[li] = append([]int(nil), cur...)
		alloc.BodyBytes[li] = bytes
	}
	return alloc
}

// TotalBytes returns the body size if every pass of every block is included.
func TotalBytes(blocks []BlockPasses) int {
	total := 0
	for _, b := range blocks {
		if n := len(b.Rates); n > 0 {
			total += b.Rates[n-1]
		}
	}
	return total
}
