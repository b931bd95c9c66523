package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a persistent set of worker goroutines executing the package's
// dispatch shapes — chunked parallel-for barriers and staggered round-robin
// task sets — without the per-call fork/join of spawning goroutines. The
// paper's thread pool is created once per process and reused for every stage
// of every image; Pool is that object: encoders, decoders and the tile server
// each hold one (or share one) across calls, so steady-state dispatch costs a
// few channel operations instead of goroutine spawns.
//
// Worker identity is per dispatch, not per goroutine: each dispatch of width
// q hands out dense ids in [0, q) to whichever resident workers claim its
// shares, so callers can index per-worker scratch exactly as they did with
// spawn-per-call dispatch, and the task-to-id assignment (worker w runs tasks
// w, w+q, w+2q, ...) is byte-for-byte the one spawn-per-call dispatch used —
// pooling cannot perturb deterministic output.
//
// Dispatches may overlap freely (a server fans out many requests over one
// Pool) and may nest (a unit-level dispatch whose tasks dispatch DWT level
// barriers): a dispatcher waiting for its own batch helps drain the queue, so
// nested dispatch cannot deadlock even when every resident worker is busy.
type Pool struct {
	size   int
	work   chan *batch
	free   chan *batch // recycled batches; unlike sync.Pool, immune to GC purges
	start  sync.Once   // workers spawn on first non-inline dispatch
	wg     sync.WaitGroup
	closed atomic.Bool

	// Dispatch observability (see Stats): totals move once per dispatch
	// barrier, never per task, so a saturated pool pays a few atomic adds per
	// barrier for full queue visibility.
	dispatches atomic.Int64 // completed dispatch barriers
	inFlight   atomic.Int64 // barriers currently executing
	waitNanos  atomic.Int64 // cumulative wall time inside dispatch barriers
}

// PoolStats is a point-in-time view of a pool's dispatch activity — the
// queue-depth/in-flight/dispatch-wait gauges the serving layer exposes.
type PoolStats struct {
	Workers    int   // resident worker goroutines
	QueueDepth int   // batch shares queued and not yet claimed
	InFlight   int64 // dispatch barriers currently executing
	Dispatches int64 // dispatch barriers completed since creation
	WaitNanos  int64 // cumulative wall time spent inside dispatch barriers
}

// Stats snapshots the pool's dispatch gauges. Safe to call concurrently with
// dispatches; the fields are independently atomic (a snapshot is not a
// consistent cut, which monitoring does not need).
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers:    p.size,
		QueueDepth: len(p.work),
		InFlight:   p.inFlight.Load(),
		Dispatches: p.dispatches.Load(),
		WaitNanos:  p.waitNanos.Load(),
	}
}

// batch is one dispatch in flight: the function to run, the width q, the id
// allocator and the completion signal. Batches are recycled through the
// pool's free list (a buffered channel, so recycling survives GC cycles —
// a sync.Pool here leaked ~1 batch+channel alloc per GC back into the
// steady state), so warm dispatch does not allocate.
//
// next and undone share a line with the read-only rng/task/n/q on purpose:
// each is written once per share (2q writes per dispatch), and run copies the
// read-only fields into locals before its task loop, so a running share never
// touches the batch between claiming its id and finishing.
type batch struct {
	rng    func(worker, lo, hi int) // chunked barrier (ForID): chunk id of q
	task   func(worker, i int)      // strided tasks (TasksIDMax): ids i, i+q, ...
	n, q   int
	next   atomic.Int64 // dense worker-id allocator
	undone atomic.Int64 // shares not yet finished
	done   chan struct{}
}

// run claims the next dense worker id and executes that id's share of the
// batch, signalling done when it is the last share to finish.
func (b *batch) run() {
	id := int(b.next.Add(1)) - 1
	n, q := b.n, b.q
	if b.rng != nil {
		chunk, rem := n/q, n%q
		lo := id*chunk + min(id, rem)
		hi := lo + chunk
		if id < rem {
			hi++
		}
		b.rng(id, lo, hi)
	} else {
		task := b.task
		for i := id; i < n; i += q {
			task(id, i)
		}
	}
	if b.undone.Add(-1) == 0 {
		b.done <- struct{}{}
	}
}

// NewPool returns a pool of the given size (<= 0 selects GOMAXPROCS). The
// worker goroutines start lazily on the first dispatch that needs them, so an
// unused pool costs nothing; Close joins whatever was started.
func NewPool(size int) *Pool {
	return &Pool{size: Workers(size), work: make(chan *batch, 64), free: make(chan *batch, 64)}
}

// getBatch pops a recycled batch or allocates a fresh one.
func (p *Pool) getBatch() *batch {
	select {
	case b := <-p.free:
		return b
	default:
		return &batch{done: make(chan struct{}, 1)}
	}
}

// putBatch recycles a finished batch, dropping it when the free list is full.
func (p *Pool) putBatch(b *batch) {
	b.rng, b.task = nil, nil
	select {
	case p.free <- b:
	default:
	}
}

// Size returns the number of resident workers.
func (p *Pool) Size() int { return p.size }

// Close joins every worker goroutine; it returns once all have exited. Close
// must not race with an in-flight dispatch, and dispatching on a closed pool
// panics. Closing a never-used or already-closed pool is a no-op.
func (p *Pool) Close() {
	if p == nil || p.closed.Swap(true) {
		return
	}
	p.start.Do(func() {}) // a later dispatch must not spawn workers
	close(p.work)
	p.wg.Wait()
}

func (p *Pool) spawn() {
	p.start.Do(func() {
		for i := 0; i < p.size; i++ {
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				for b := range p.work {
					b.run()
				}
			}()
		}
	})
}

// dispatch enqueues q-1 shares for the resident workers, runs one share on
// the calling goroutine, and waits for the rest — helping with other queued
// batches rather than blocking, which is what makes nested and concurrent
// dispatch on a saturated pool deadlock-free: both the enqueue (sendShare)
// and the wait below drain the queue instead of parking, so a thread parks
// only when the queue is momentarily empty and its own shares are running
// elsewhere.
func (p *Pool) dispatch(q, n int, rng func(worker, lo, hi int), task func(worker, i int)) {
	p.spawn()
	start := time.Now()
	p.inFlight.Add(1)
	defer func() {
		p.inFlight.Add(-1)
		p.dispatches.Add(1)
		p.waitNanos.Add(int64(time.Since(start)))
	}()
	b := p.getBatch()
	b.rng, b.task, b.n, b.q = rng, task, n, q
	b.next.Store(0)
	b.undone.Store(int64(q))
	for i := 1; i < q; i++ {
		p.sendShare(b)
	}
	b.run()
	for b.undone.Load() != 0 {
		select {
		case ob := <-p.work:
			ob.run()
		case <-b.done:
			p.putBatch(b)
			return
		}
	}
	<-b.done // consume the completion token before recycling
	p.putBatch(b)
}

// sendShare enqueues one share of b, running other queued shares whenever
// the channel is full. A plain blocking send here can deadlock a saturated
// pool: with every resident worker parked in a nested send and every
// dispatcher still in its enqueue loop, no goroutine would ever receive.
// This select never parks without progress — the send is ready whenever the
// queue has room, the receive is ready whenever it does not.
func (p *Pool) sendShare(b *batch) {
	for {
		select {
		case p.work <- b:
			return
		case ob := <-p.work:
			ob.run()
		}
	}
}

// ForID runs fn over [0, n) in at most Size contiguous chunks on the resident
// workers, returning after all complete (a barrier, as required between the
// vertical and horizontal filtering of each DWT level).
func (p *Pool) ForID(n int, fn func(worker, lo, hi int)) {
	p.ForIDMax(p.size, n, fn)
}

// ForIDMax is ForID with the chunk count capped at w instead of the pool
// size (w <= 0 selects the pool size, mirroring Workers): the index range
// splits into q = min(w, n) chunks with dense worker ids in [0, q), so
// per-worker scratch sized for min(w, n) workers stays valid; with q <= 1 it
// runs inline with zero dispatch overhead. When w exceeds the pool size the
// resident workers multiplex the extra shares; the chunking — and therefore
// any worker-indexed state use — is unchanged.
func (p *Pool) ForIDMax(w, n int, fn func(worker, lo, hi int)) {
	q := w
	if q <= 0 {
		q = p.size
	}
	if q > n {
		q = n
	}
	if q <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	p.dispatch(q, n, fn, nil)
}

// ForMax is ForIDMax without the worker id.
func (p *Pool) ForMax(w, n int, fn func(lo, hi int)) {
	p.ForIDMax(w, n, func(_, lo, hi int) { fn(lo, hi) })
}

// TasksIDMax runs n tasks under the staggered round-robin assignment on the
// resident workers: worker w runs tasks w, w+q, w+2q, ... with stride
// q = min(w, n) (w <= 0 selects the pool size) and dense worker ids in
// [0, q), whatever the pool size. The assignment is iterated arithmetically
// rather than materialized, so dispatch itself does not allocate.
func (p *Pool) TasksIDMax(w, n int, fn func(worker, i int)) {
	q := w
	if q <= 0 {
		q = p.size
	}
	if q > n {
		q = n
	}
	if q <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	p.dispatch(q, n, nil, fn)
}

// defaultPool backs every caller that holds no pool of its own: one shared
// GOMAXPROCS-sized pool per process, created on first use and never closed
// (its parked workers are the process's resident parallelism, like the Go
// runtime's own worker threads).
var (
	defaultPool     *Pool
	defaultPoolOnce sync.Once
)

// Default returns the shared process-wide pool, creating it on first use.
// Callers that want an isolated worker set (for Close semantics or fairness)
// should hold their own NewPool.
func Default() *Pool {
	defaultPoolOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}
