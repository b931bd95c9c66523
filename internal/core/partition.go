// Package core implements the paper's parallelization strategy as a reusable
// library: a worker pool that splits the deterministic-workload wavelet
// transform into static contiguous chunks (Sec. 3.2: "the deterministic
// workload allows a static load allocation") and assigns code-blocks
// staggered round-robin (the load-balance fix for tier-1 coding).
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
