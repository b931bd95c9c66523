package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolForIDMatchesSpawn checks the pooled chunked barrier against the
// original spawn-per-call chunking for a sweep of (p, n): same dense worker
// ids, same chunk boundaries, every index covered exactly once.
func TestPoolForIDMatchesSpawn(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, workers := range []int{1, 2, 3, 4, 7, 16} {
		for _, n := range []int{0, 1, 2, 5, 16, 33} {
			var mu sync.Mutex
			got := make(map[int][2]int) // worker -> chunk
			cover := make([]int, n)
			p.ForIDMax(workers, n, func(worker, lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				if _, dup := got[worker]; dup {
					t.Errorf("p=%d n=%d: worker %d ran two chunks", workers, n, worker)
				}
				got[worker] = [2]int{lo, hi}
				for i := lo; i < hi; i++ {
					cover[i]++
				}
			})
			q := workers
			if q > n {
				q = n
			}
			for i, c := range cover {
				if c != 1 {
					t.Fatalf("p=%d n=%d: index %d covered %d times", workers, n, i, c)
				}
			}
			if n > 0 && len(got) != max(q, 1) {
				t.Fatalf("p=%d n=%d: %d workers ran, want %d", workers, n, len(got), max(q, 1))
			}
			// Chunk boundaries must match the historical contiguous split.
			chunk, rem := 0, 0
			if q > 0 {
				chunk, rem = n/q, n%q
			}
			for w, c := range got {
				if w < 0 || w >= max(q, 1) {
					t.Fatalf("p=%d n=%d: worker id %d out of [0,%d)", workers, n, w, q)
				}
				lo := w*chunk + min(w, rem)
				hi := lo + chunk
				if w < rem {
					hi++
				}
				if c != [2]int{lo, hi} {
					t.Fatalf("p=%d n=%d worker %d: chunk %v, want [%d,%d)", workers, n, w, c, lo, hi)
				}
			}
		}
	}
}

// TestPoolTasksIDStaggered checks that the pooled task dispatch preserves the
// staggered round-robin assignment: worker w runs exactly tasks w, w+q,
// w+2q, ... — the assignment the determinism gates depend on.
func TestPoolTasksIDStaggered(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	for _, workers := range []int{1, 2, 4, 8} {
		const n = 23
		owner := make([]int64, n)
		p.TasksIDMax(workers, n, func(worker, i int) {
			atomic.StoreInt64(&owner[i], int64(worker)+1)
		})
		q := workers
		if q > n {
			q = n
		}
		for i, w := range owner {
			if w == 0 {
				t.Fatalf("p=%d: task %d never ran", workers, i)
			}
			if int(w-1) != i%q {
				t.Fatalf("p=%d: task %d ran on worker %d, want %d", workers, i, w-1, i%q)
			}
		}
	}
}

// TestPoolCloseJoinsWorkers is the goroutine-leak gate: after Close returns,
// every resident worker the pool spawned has exited.
func TestPoolCloseJoinsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(8)
	var ran atomic.Int64
	p.TasksIDMax(p.Size(), 64, func(_, _ int) { ran.Add(1) })
	if ran.Load() != 64 {
		t.Fatalf("ran %d tasks, want 64", ran.Load())
	}
	p.Close()
	p.Close() // idempotent
	// NumGoroutine is racy against unrelated runtime goroutines; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Close, started with %d", n, before)
	}
	// A never-started pool closes without having spawned anything.
	NewPool(4).Close()
}

// TestPoolSteadyStateAllocs caps the allocation cost of a warm dispatch: the
// batch recycles through the pool's free list and the shares travel by
// channel, so a dispatch allocates at most the caller's closure (hoisted out
// here, hence the budget of ~zero; 1 tolerates a GC-cleared free list).
func TestPoolSteadyStateAllocs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var sink atomic.Int64
	task := func(worker, i int) { sink.Add(int64(worker + i)) }
	rng := func(worker, lo, hi int) { sink.Add(int64(worker + hi - lo)) }
	p.TasksIDMax(p.Size(), 16, task) // warm the free list and spawn the workers
	p.ForID(16, rng)
	if avg := testing.AllocsPerRun(100, func() { p.TasksIDMax(p.Size(), 16, task) }); avg > 1 {
		t.Errorf("TasksIDMax steady state: %.1f allocs/op, want <= 1", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { p.ForID(16, rng) }); avg > 1 {
		t.Errorf("ForID steady state: %.1f allocs/op, want <= 1", avg)
	}
}

// TestPoolConcurrentDispatch hammers one pool from many goroutines at once —
// the serve-layer shape, where every request fans its tile decodes into the
// server's shared pool. Run under -race this is the data-race gate for the
// dispatch machinery itself.
func TestPoolConcurrentDispatch(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const requests = 16
	var wg sync.WaitGroup
	for r := 0; r < requests; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				n := 1 + (r+round)%13
				got := make([]int64, n)
				p.TasksIDMax(1+r%5, n, func(worker, i int) {
					atomic.AddInt64(&got[i], 1)
				})
				for i, c := range got {
					if c != 1 {
						t.Errorf("request %d round %d: task %d ran %d times", r, round, i, c)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestPoolSaturatedNestedDispatch floods a tiny pool with far more
// concurrent nested dispatches than its work queue can buffer. This is the
// regression test for an enqueue deadlock: a dispatcher that blocks sending
// shares into a full channel (instead of helping drain it) wedges the whole
// pool once every resident worker is itself stuck in a nested send.
func TestPoolSaturatedNestedDispatch(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	const clients = 300
	var total atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.TasksIDMax(4, 6, func(_, _ int) {
					p.ForIDMax(3, 5, func(_, lo, hi int) {
						total.Add(int64(hi - lo))
					})
				})
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("saturated nested dispatch deadlocked")
	}
	if total.Load() != clients*6*5 {
		t.Fatalf("covered %d indices, want %d", total.Load(), clients*6*5)
	}
}

// TestPoolNestedDispatch exercises the encoder's shape — an outer unit-level
// dispatch whose tasks run inner level barriers on the same pool — at widths
// that oversubscribe the residents, proving the helping waiter makes nested
// dispatch deadlock-free.
func TestPoolNestedDispatch(t *testing.T) {
	p := NewPool(2) // smaller than the dispatch widths below
	defer p.Close()
	var total atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.TasksIDMax(4, 8, func(worker, i int) {
			p.ForIDMax(4, 12, func(_, lo, hi int) {
				total.Add(int64(hi - lo))
			})
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nested dispatch deadlocked")
	}
	if total.Load() != 8*12 {
		t.Fatalf("nested tasks covered %d indices, want %d", total.Load(), 8*12)
	}
}

// TestPoolStats checks the dispatch gauges: inline short-circuits (q <= 1)
// move nothing, real barriers count once each with nonzero cumulative wait,
// and in-flight returns to zero once every barrier completes.
func TestPoolStats(t *testing.T) {
	p := NewPool(4)
	defer p.Close()

	if s := p.Stats(); s.Workers != 4 || s.Dispatches != 0 || s.InFlight != 0 || s.WaitNanos != 0 {
		t.Fatalf("fresh pool stats = %+v, want zeros with 4 workers", s)
	}

	p.ForIDMax(1, 100, func(_, _, _ int) {}) // inline path: no barrier
	if s := p.Stats(); s.Dispatches != 0 {
		t.Fatalf("inline dispatch moved the barrier counter: %+v", s)
	}

	const barriers = 5
	for i := 0; i < barriers; i++ {
		p.ForID(64, func(_, lo, hi int) {
			for j := lo; j < hi; j++ {
				_ = j * j
			}
		})
	}
	s := p.Stats()
	if s.Dispatches != barriers {
		t.Errorf("dispatches = %d, want %d", s.Dispatches, barriers)
	}
	if s.InFlight != 0 {
		t.Errorf("in-flight = %d after all barriers returned, want 0", s.InFlight)
	}
	if s.WaitNanos <= 0 {
		t.Errorf("wait nanos = %d, want > 0", s.WaitNanos)
	}

	// A barrier observed mid-flight shows up in InFlight.
	gate := make(chan struct{})
	seen := make(chan PoolStats, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.TasksIDMax(2, 2, func(_, i int) {
			if i == 0 {
				seen <- p.Stats()
			}
			<-gate
		})
	}()
	got := <-seen
	if got.InFlight != 1 {
		t.Errorf("mid-barrier in-flight = %d, want 1", got.InFlight)
	}
	close(gate)
	wg.Wait()
	if s := p.Stats(); s.Dispatches != barriers+1 || s.InFlight != 0 {
		t.Errorf("final stats = %+v, want %d dispatches and 0 in flight", s, barriers+1)
	}
}
