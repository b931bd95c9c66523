// Package amdahl computes the theoretical speedup bounds of Sec. 3.4 of the
// paper: speedup(n) = (s + p) / (s + p/n), where s is time in inherently
// sequential code and p is time in parallelizable code.
package amdahl

// Profile splits a workload into its sequential and parallelizable parts
// (any time unit, only the ratio matters).
type Profile struct {
	Sequential float64
	Parallel   float64
}

// Speedup returns the Amdahl bound for n processors.
func (pr Profile) Speedup(n int) float64 {
	if n < 1 {
		n = 1
	}
	total := pr.Sequential + pr.Parallel
	if total == 0 {
		return 1
	}
	return total / (pr.Sequential + pr.Parallel/float64(n))
}

// ParallelFraction returns p / (s + p).
func (pr Profile) ParallelFraction() float64 {
	total := pr.Sequential + pr.Parallel
	if total == 0 {
		return 0
	}
	return pr.Parallel / total
}
