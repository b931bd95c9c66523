package dwt

import "pj2k/internal/core"

// Scratch holds per-worker filtering buffers so repeated transforms perform
// no allocations in their level loops. The paper's threads keep private
// per-processor state; Scratch is that state for the Go implementation:
// worker w of a Pool.ForIDMax chunking uses only slot w, so no
// synchronization is needed. Buffers grow to the largest level's demand on
// first use (levels run largest first) and are retained across calls.
//
// A Scratch must only be shared by transforms that run sequentially with
// respect to each other; concurrent transforms (e.g. parallel tiles) need
// one Scratch each.
type Scratch struct {
	ws []scratchSlot
}

// scratchSlot is one worker's buffers. Two slots of each element type cover
// the worst case (the naive 9/7 vertical filter needs a gather column and a
// deinterleave buffer at once).
type scratchSlot struct {
	i32 [2][]int32
	f64 [2][]float64
}

// NewScratch returns scratch state for up to `workers` parallel workers
// (<= 0 selects GOMAXPROCS, matching Strategy.Workers semantics).
func NewScratch(workers int) *Scratch {
	workers = core.Workers(workers)
	return &Scratch{ws: make([]scratchSlot, workers)}
}

// i32 returns worker's int32 buffer for the given slot with length n,
// growing it if needed. A nil Scratch (or an out-of-range worker index, which
// only happens when a Scratch sized for fewer workers is passed) falls back
// to a fresh allocation, preserving correctness.
func (s *Scratch) i32(worker, slot, n int) []int32 {
	if s == nil || worker >= len(s.ws) {
		return make([]int32, n)
	}
	b := &s.ws[worker].i32[slot]
	if cap(*b) < n {
		*b = make([]int32, n)
	}
	return (*b)[:n]
}

// f64 is the float64 counterpart of i32.
func (s *Scratch) f64(worker, slot, n int) []float64 {
	if s == nil || worker >= len(s.ws) {
		return make([]float64, n)
	}
	b := &s.ws[worker].f64[slot]
	if cap(*b) < n {
		*b = make([]float64, n)
	}
	return (*b)[:n]
}
