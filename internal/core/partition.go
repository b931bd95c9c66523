// Package core implements the paper's parallelization strategy as a reusable
// library: static contiguous partitioning for the deterministic-workload
// wavelet transform (Sec. 3.2: "the deterministic workload allows a static
// load allocation"), a staggered round-robin scheduler for code-blocks (the
// load-balance fix for tier-1 coding), and a worker pool.
package core

import "runtime"

// CacheLinePad is the distance that keeps two pieces of state out of each
// other's cache traffic: 128 B, two 64 B lines, because the adjacent-line
// prefetcher of current x86 parts fetches lines in aligned pairs, so state 64 B
// apart can still ping-pong. State one worker writes at symbol rate (MQ coder
// registers, contexts, raw bit writers) is laid out so that no other worker's
// hot state lies within CacheLinePad bytes of it; DESIGN.md §7 has the rule
// and the audit.
const CacheLinePad = 128

// Workers normalizes a worker-count request: w <= 0 selects GOMAXPROCS.
func Workers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// StaggeredRoundRobin assigns n tasks to p workers the way the paper assigns
// code-blocks to its thread pool: worker w receives tasks w, w+p, w+2p, ...
// Adjacent code-blocks have correlated cost (they cover neighbouring image
// regions), so striding by p spreads expensive regions across workers instead
// of giving one worker a contiguous run of hard blocks.
// The returned slice maps worker index to its task indices.
func StaggeredRoundRobin(n, p int) [][]int {
	p = Workers(p)
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	out := make([][]int, p)
	for w := 0; w < p; w++ {
		for t := w; t < n; t += p {
			out[w] = append(out[w], t)
		}
	}
	return out
}
