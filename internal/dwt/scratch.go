package dwt

import "pj2k/internal/core"

// Scratch holds per-worker filtering buffers so repeated transforms perform
// no allocations in their level loops. The paper's threads keep private
// per-processor state; Scratch is that state for the Go implementation:
// worker w of a Pool.ForIDMax chunking uses only slot w, so no
// synchronization is needed. A transform grows the slots to its strategy's
// worker count and the buffers to the largest level's demand (levels run
// largest first); both are retained across calls, so a Scratch shared by
// transforms of different worker counts keeps every warm buffer.
//
// A Scratch must only be shared by transforms that run sequentially with
// respect to each other; concurrent transforms (e.g. parallel tiles) need
// one Scratch each. The zero Scratch is ready to use.
type Scratch struct {
	ws []scratchSlot
}

// scratchSlot is one worker's buffers: a level pass needs one row, column or
// column block of one element type at a time.
type scratchSlot struct {
	i32 []int32
	f64 []float64
}

// NewScratch returns scratch state for up to `workers` parallel workers
// (<= 0 selects GOMAXPROCS, matching Strategy.Workers semantics).
func NewScratch(workers int) *Scratch {
	return &Scratch{ws: make([]scratchSlot, core.Workers(workers))}
}

// grow makes room for n workers, keeping the existing slots. A nil Scratch
// stays nil.
func (s *Scratch) grow(n int) {
	if s != nil && len(s.ws) < n {
		s.ws = append(s.ws, make([]scratchSlot, n-len(s.ws))...)
	}
}

// buffer returns worker's buffer of n samples of type T, growing it if
// needed. A nil Scratch falls back to a fresh allocation.
func buffer[T sample](s *Scratch, worker, n int) []T {
	if s == nil {
		return make([]T, n)
	}
	slot := &s.ws[worker]
	b, ok := any(&slot.i32).(*[]T)
	if !ok {
		b = any(&slot.f64).(*[]T)
	}
	if cap(*b) < n {
		*b = make([]T, n)
	}
	return (*b)[:n]
}
