package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForMaxCoversRange(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 5, 100, 1000} {
			var mu sync.Mutex
			seen := make([]int, n)
			Default().ForMax(p, n, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("p=%d n=%d: index %d covered %d times", p, n, i, c)
				}
			}
		}
	}
}

func TestForMaxBarrier(t *testing.T) {
	// ForMax must not return before all chunks complete.
	var done int32
	Default().ForMax(8, 64, func(lo, hi int) {
		atomic.AddInt32(&done, int32(hi-lo))
	})
	if done != 64 {
		t.Fatalf("returned with %d of 64 items done", done)
	}
}

func TestStaggeredRoundRobin(t *testing.T) {
	assign := StaggeredRoundRobin(10, 3)
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
	if got := StaggeredRoundRobin(2, 8); len(got) != 2 {
		t.Fatalf("more workers than tasks: %d lists", len(got))
	}
	if got := StaggeredRoundRobin(0, 4); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("zero tasks: %v", got)
	}
}

func TestTasksIDMaxExecutesAll(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		n := 37
		counts := make([]int32, n)
		Default().TasksIDMax(p, n, func(_, i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("p=%d: task %d ran %d times", p, i, c)
			}
		}
	}
}

func TestQuickPartitionInvariants(t *testing.T) {
	f := func(n16 uint16, p8 uint8) bool {
		n := int(n16 % 2000)
		p := 1 + int(p8%32)
		total := 0
		Default().ForMax(1, 0, func(lo, hi int) {}) // degenerate must not panic
		assign := StaggeredRoundRobin(n, p)
		for _, ts := range assign {
			total += len(ts)
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
