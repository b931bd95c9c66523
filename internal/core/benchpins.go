package core

// Kept for bench/ only; deleted in the benchmark PR (ROADMAP item 7).

// ForID is ForIDMax at the pool's size.
func (p *Pool) ForID(n int, fn func(worker, lo, hi int)) {
	p.ForIDMax(p.size, n, fn)
}
