package smp

import "testing"

// The scheduling ablation: the paper's staggered round-robin code-block
// assignment (core.Pool.TasksIDMax runs it arithmetically) against contiguous
// chunking, as makespans over modelled task times.

// staggeredRoundRobin assigns n tasks to p workers the way the paper assigns
// code-blocks to its thread pool: worker w receives tasks w, w+p, w+2p, ...
// Adjacent code-blocks have correlated cost (they cover neighbouring image
// regions), so striding by p spreads expensive regions across workers instead
// of giving one worker a contiguous run of hard blocks. The returned slice
// maps worker index to its task indices.
func staggeredRoundRobin(n, p int) [][]int {
	p = max(min(p, n), 1)
	out := make([][]int, p)
	for w := 0; w < p; w++ {
		for t := w; t < n; t += p {
			out[w] = append(out[w], t)
		}
	}
	return out
}

// makespan computes the completion time of per-task serial times assigned to
// workers by the given schedule (worker -> task indices): the slowest
// worker's total. Tier-1 code-block coding is compute-bound, so no bus
// contention is modelled.
func makespan(taskTime []float64, schedule [][]int) float64 {
	worst := 0.0
	for _, tasks := range schedule {
		sum := 0.0
		for _, t := range tasks {
			sum += taskTime[t]
		}
		worst = max(worst, sum)
	}
	return worst
}

func TestStaggeredRoundRobin(t *testing.T) {
	assign := staggeredRoundRobin(10, 3)
	if len(assign) != 3 {
		t.Fatalf("%d workers", len(assign))
	}
	if got := assign[0]; len(got) != 4 || got[0] != 0 || got[1] != 3 || got[2] != 6 || got[3] != 9 {
		t.Fatalf("worker 0 tasks %v", got)
	}
	// All tasks exactly once.
	seen := make([]bool, 10)
	for _, ts := range assign {
		for _, i := range ts {
			if seen[i] {
				t.Fatalf("task %d assigned twice", i)
			}
			seen[i] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("task %d unassigned", i)
		}
	}
}

func TestStaggeredRoundRobinEdgeCases(t *testing.T) {
	if got := staggeredRoundRobin(2, 8); len(got) != 2 {
		t.Fatalf("more workers than tasks: %d lists", len(got))
	}
	if got := staggeredRoundRobin(0, 4); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("zero tasks: %v", got)
	}
}

// BenchmarkAblation_Scheduling compares the paper's staggered round-robin
// code-block assignment against contiguous chunking on a cost ramp.
func BenchmarkAblation_Scheduling(b *testing.B) {
	const n, p = 1024, 4
	times := make([]float64, n)
	for i := range times {
		times[i] = 1 + float64(i)/64 // spatially correlated block costs
	}
	contig := make([][]int, p)
	for w := 0; w < p; w++ {
		for k := w * n / p; k < (w+1)*n/p; k++ {
			contig[w] = append(contig[w], k)
		}
	}
	b.Run("contiguous", func(b *testing.B) {
		var mk float64
		for i := 0; i < b.N; i++ {
			mk = makespan(times, contig)
		}
		b.ReportMetric(mk, "makespan")
	})
	b.Run("staggered", func(b *testing.B) {
		var mk float64
		sched := staggeredRoundRobin(n, p)
		for i := 0; i < b.N; i++ {
			mk = makespan(times, sched)
		}
		b.ReportMetric(mk, "makespan")
	})
}
