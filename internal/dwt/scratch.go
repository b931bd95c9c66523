package dwt

// Scratch holds per-worker filtering buffers and the level jobs that use
// them, so repeated transforms perform no allocations in their level loops.
// The paper's threads keep private per-processor state; Scratch is that state
// for the Go implementation: worker w of a Pool.ForIDMax chunking uses only
// slot w, so no synchronization is needed. A transform grows the slots to its
// strategy's worker count and the buffers to the largest level's demand
// (levels run largest first); both are retained across calls, so a Scratch
// shared by transforms of different worker counts keeps every warm buffer.
//
// Each level barrier dispatches a job bound once per Scratch and sample type
// (rows, naive columns, column blocks), with the level's parameters in the
// Scratch instead of in a fresh closure. A warm transform on a Scratch
// therefore allocates nothing, at any Workers and for any plane shape; the
// first transform of each sample type binds its three jobs, and a buffer
// grows only when a plane is larger than any the Scratch has filtered.
//
// A Scratch must only be shared by transforms that run sequentially with
// respect to each other; concurrent transforms (e.g. parallel tiles) need
// one Scratch each. The zero Scratch is ready to use.
type Scratch struct {
	ws  []scratchSlot
	j32 levelJob[int32]
	j64 levelJob[float64]
}

// scratchSlot is one worker's buffers: a level pass needs one row, column or
// column block of one element type at a time.
type scratchSlot struct {
	i32 []int32
	f64 []float64
}

// levelJob is one transform's per-level state: the plane, the strategy, the
// current level's LL size and the direction's kernels, read by the level jobs
// bound to it. Only the goroutine running the transform writes it, and only
// between barriers.
type levelJob[T sample] struct {
	s      *Scratch // the Scratch the jobs were bound in (a copy rebinds)
	st     Strategy
	p      plane[T]
	cw, ch int
	line   func(dst, src []T)      // rows and naive columns
	cols   func(l lanes[T], n int) // column blocks

	rowsFn, naiveFn, blocksFn func(worker, lo, hi int)
}

// levelJobOf returns s's level job for sample type T, binding its dispatch
// funcs on first use.
func levelJobOf[T sample](s *Scratch) *levelJob[T] {
	j, ok := any(&s.j32).(*levelJob[T])
	if !ok {
		j = any(&s.j64).(*levelJob[T])
	}
	if j.s != s {
		j.s = s
		j.rowsFn, j.naiveFn, j.blocksFn = j.rows, j.naive, j.blocks
	}
	return j
}

// grow makes room for n workers, keeping the existing slots.
func (s *Scratch) grow(n int) {
	if len(s.ws) < n {
		s.ws = append(s.ws, make([]scratchSlot, n-len(s.ws))...)
	}
}

// buffer returns worker's buffer of n samples of type T, growing it if
// needed.
func buffer[T sample](s *Scratch, worker, n int) []T {
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
