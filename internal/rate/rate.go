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

// Hull is the upper convex hull of one block's R-D points, built one
// candidate truncation point at a time. The allocator builds its segments
// with it and the tier-1 coder runs the same steps while it codes, so the
// two cannot disagree about a vertex or a slope. The zero value needs a
// Reset; the point storage is kept across blocks.
type Hull struct {
	pts []rdPoint // pts[0] is the origin; slopes between neighbours decrease strictly
}

// Reset empties the hull to the origin (no passes, no bytes, no gain).
func (h *Hull) Reset() {
	h.pts = append(h.pts[:0], rdPoint{})
}

// Add offers the truncation point after passes coding passes: rate cumulative
// bytes, dist cumulative distortion reduction. Individual pass deltas may be
// negative (magnitude refinement can transiently worsen the midpoint
// reconstruction), so a point that does not improve on the current top is
// never a truncation point; otherwise it replaces every vertex it makes
// non-convex.
func (h *Hull) Add(passes, rate int, dist float64) {
	st := h.pts
	p := rdPoint{passes, rate, dist}
	if p.dist <= st[len(st)-1].dist {
		return
	}
	for len(st) >= 2 && slopeBetween(st[len(st)-1], p) >= slopeBetween(st[len(st)-2], st[len(st)-1]) {
		st = st[:len(st)-1]
	}
	h.pts = append(st, p)
}

// certSlack covers the rounding of the float64 distortion sums on both sides
// of the certificate (a few thousand additions at 2^-53 each).
const certSlack = 1e-9

// Certify is the early-termination certificate (DESIGN.md §8). bound is an
// upper limit on the cumulative distortion reduction of every point still to
// come, and floor a lower limit on their rates. A vertex v (rate r below
// floor, gain d, incoming slope s) cannot be removed by any such point if
// bound-d < s*(floor-r): the slope from v to the point stays below s, which
// is the only test Add pops on. Every hull segment after a surviving vertex
// is then flatter than s. Certify returns the pass count of the first vertex
// with incoming slope below lambda that is certified this way, or 0.
func (h *Hull) Certify(bound float64, floor int, lambda float64) int {
	st := h.pts
	// float64() rounds the product before the sum: no FMA on any
	// architecture (DESIGN.md §3), here and in CutoffSlope.
	bound += float64(certSlack * bound)
	for i := len(st) - 1; i >= 1; i-- {
		s := slopeBetween(st[i-1], st[i])
		if s >= lambda {
			break // slopes only grow towards the origin
		}
		if st[i].rate < floor && bound-st[i].dist < s*float64(floor-st[i].rate) {
			return st[i].passes
		}
	}
	return 0
}

// hull appends the convex-hull segments for one block to a.segs, slopes
// strictly decreasing.
func (a *Allocator) hull(b BlockPasses, blockIdx int) {
	h := &a.h
	h.Reset()
	cum := 0.0
	for k := range b.Rates {
		cum += b.Dist[k]
		if b.Terminal != nil && !b.Terminal[k] {
			continue // not a segment boundary: never a truncation point
		}
		h.Add(k+1, b.Rates[k], cum)
	}
	st := h.pts
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
	h    Hull
	cur  []int
}

// Allocate fills the cumulative layer budgets (body bytes) with hull segments
// in globally decreasing slope order. Budgets beyond the total available data
// simply include everything.
func Allocate(blocks []BlockPasses, layerBudgets []int) Allocation {
	var a Allocator
	return a.Allocate(blocks, layerBudgets)
}

// sortedSegments builds every block's hull and returns all segments in the
// order the greedy fills them: a stable sort by decreasing slope, which keeps
// each block's segments in pass order (their slopes decrease strictly within a
// block) and equal slopes in block order.
func (a *Allocator) sortedSegments(blocks []BlockPasses) []segment {
	a.segs = a.segs[:0]
	for i, b := range blocks {
		a.hull(b, i)
	}
	slices.SortStableFunc(a.segs, func(x, y segment) int {
		switch {
		case x.slope > y.slope:
			return -1
		case x.slope < y.slope:
			return 1
		default:
			return 0
		}
	})
	return a.segs
}

// CutoffSlope predicts where Allocate will stop from a sample of the blocks:
// weight[i] is the number of blocks of the whole population that sampled block
// i stands for, so its segment bytes count that many times. It returns the
// slope of the first segment the greedy could not fit into budget, or 0 when
// the whole (weighted) sample fits — the budget does not bind.
func (a *Allocator) CutoffSlope(blocks []BlockPasses, weight []float64, budget int) float64 {
	bytes := 0.0
	for _, sg := range a.sortedSegments(blocks) {
		bytes += float64(float64(sg.bytes) * weight[sg.block])
		if bytes > float64(budget) {
			return sg.slope
		}
	}
	return 0
}

// Allocate is the scratch-reusing form of the package-level Allocate.
func (a *Allocator) Allocate(blocks []BlockPasses, layerBudgets []int) Allocation {
	segs := a.sortedSegments(blocks)

	alloc := Allocation{
		NPasses:   make([][]int, len(layerBudgets)),
		BodyBytes: make([]int, len(layerBudgets)),
	}
	table := make([]int, len(layerBudgets)*len(blocks)) // every layer's row, one allocation
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
		alloc.NPasses[li] = table[li*len(blocks) : (li+1)*len(blocks) : (li+1)*len(blocks)]
		copy(alloc.NPasses[li], cur)
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
