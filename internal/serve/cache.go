// Package serve is the progressive image-serving subsystem built on the
// codec: a read-only store of indexed codestreams, an LRU cache of decoded
// tiles, and an HTTP server that answers window/resolution/layer requests by
// decoding only the tiles a request touches. This is the payoff of the
// JPEG2000 packet structure the paper's pipeline produces: one codestream
// serves thumbnails, viewports and progressive refinement to any number of
// clients, and the parallel decoder keeps per-request latency bounded by
// tile size rather than image size.
package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// TileKey identifies one decoded tile variant: a tile of an image decoded at
// a discard-level/layer-limit combination. Distinct variants cache
// independently — a thumbnail pass over a tile does not evict its full-
// resolution neighbour.
type TileKey struct {
	Image   string
	TX, TY  int
	Discard int
	Layers  int
}

// tileEntry is one cache resident on the intrusive LRU list.
type tileEntry[V any] struct {
	key        TileKey
	val        V
	bytes      int64
	prev, next *tileEntry[V]
}

// inflightCall coalesces concurrent misses on one key: the first caller
// decodes, everyone else blocks on done and shares the result. Almost no miss
// has a second caller: on the benchmark's serve-cold and serve-zipf workloads
// (traced runs, seeds 1-3) serve.cache.coalesced was 4-12 waiters per
// 3 274-4 908 misses and 4-43 per 1 792-2 224 misses, so at most 0.25 % and
// 2.2 % of misses were joined. done is therefore made by the first waiter to
// join, under Cache.mu, and closed by the leader, under Cache.mu, only if one
// was made; an unjoined miss skips the channel's allocation. A record whose
// done is still nil when its leader finishes under Cache.mu was never seen by
// anyone else (it has just left the in-flight map), so it goes on the cache's
// free list for the next miss; a record that had waiters is never reused.
type inflightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
	next *inflightCall[V] // free-list link while recycled
}

// errDecodePanicked is what waiters on a decode that panicked receive. It is
// the placeholder every miss stores before running its decode, so it is built
// once, not per miss.
var errDecodePanicked = errors.New("serve: tile decode panicked")

// Cache is a byte-budgeted LRU cache of decoded tiles (all components of a
// tile variant cache as one entry) with single-flight deduplication of
// concurrent misses. V is what a tile is kept as, and charge is what one
// resident costs against the budget. It is safe for concurrent use; the
// cached values are shared read-only between callers and must not be
// mutated.
type Cache[V any] struct {
	mu       sync.Mutex
	maxBytes int64
	charge   func(V) int64
	size     int64
	entries  map[TileKey]*tileEntry[V]
	head     tileEntry[V] // sentinel: head.next is most recent
	inflight map[TileKey]*inflightCall[V]
	// free holds the records of finished misses nobody joined. It never
	// grows past the most misses that were once in flight together.
	free *inflightCall[V]

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64
}

// tileOverhead approximates the per-entry bookkeeping bytes charged against
// the budget on top of the sample payload.
const tileOverhead = 160

// newWireCache returns the server's cache: tiles held as the bytes a response
// carries, in the sample order of the image's default format (see wireTile),
// charged their length plus per-entry overhead.
func newWireCache(maxBytes int64) *Cache[[]byte] {
	return newCache(maxBytes, func(b []byte) int64 { return wireCharge(len(b)) })
}

// wireCharge is what a wire tile of n bytes costs against the cache budget.
func wireCharge(n int) int64 { return int64(n) + tileOverhead }

func newCache[V any](maxBytes int64, charge func(V) int64) *Cache[V] {
	c := &Cache[V]{
		maxBytes: maxBytes,
		charge:   charge,
		entries:  make(map[TileKey]*tileEntry[V]),
		inflight: make(map[TileKey]*inflightCall[V]),
	}
	c.head.prev, c.head.next = &c.head, &c.head
	return c
}

func (c *Cache[V]) unlink(e *tileEntry[V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *Cache[V]) pushFront(e *tileEntry[V]) {
	e.prev = &c.head
	e.next = c.head.next
	e.prev.next = e
	e.next.prev = e
}

// CacheOutcome reports how one GetOrDecode lookup was satisfied: from the
// cache, by running the decode, or by waiting on another caller's in-flight
// decode. The serving layer folds per-tile outcomes into the per-request
// latency histograms.
type CacheOutcome int

const (
	OutcomeHit CacheOutcome = iota
	OutcomeMiss
	OutcomeCoalesced
)

// String names the outcome (the /metrics label value).
func (o CacheOutcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeMiss:
		return "miss"
	default:
		return "coalesced"
	}
}

// GetOrDecode returns the cached tile for key, or runs decode to produce it,
// reporting which happened. Concurrent calls for the same missing key run
// decode once and share the result (counted as coalesced, not hits).
// Successful results enter the cache, evicting least-recently-used tiles past
// the byte budget; errors are returned to every waiter and cached by nobody.
// A waiter whose ctx ends while the decode is in flight returns the context
// error immediately — the decode itself continues for the remaining waiters
// (and the cache), bounded by its own decode-side context. That context is the
// leader's: when it ends mid-decode the shared result is the leader's
// cancellation, which says nothing about a waiter whose own request is still
// live, so such a waiter goes round again and leads (or joins) the next decode.
func (c *Cache[V]) GetOrDecode(ctx context.Context, key TileKey, decode func() (V, error)) (V, CacheOutcome, error) {
	v, co, _, err := c.getOrDecode(ctx, key, decode)
	return v, co, err
}

// admits reports whether a value charged bytes enters the cache when its
// decode succeeds: the cache is on and the value alone fits the budget.
func (c *Cache[V]) admits(bytes int64) bool { return c.maxBytes > 0 && bytes <= c.maxBytes }

// getOrDecode is GetOrDecode that also reports whether the caller owns the
// value: this call ran the decode, the cache did not keep the result and no
// waiter joined, so nobody else holds it and the caller may recycle it.
func (c *Cache[V]) getOrDecode(ctx context.Context, key TileKey, decode func() (V, error)) (val V, co CacheOutcome, owned bool, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.unlink(e)
			c.pushFront(e)
			c.mu.Unlock()
			c.hits.Add(1)
			return e.val, OutcomeHit, false, nil
		}
		call, ok := c.inflight[key]
		if !ok {
			break // lead the decode, still holding c.mu
		}
		if call.done == nil {
			call.done = make(chan struct{})
		}
		done := call.done
		c.mu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-done:
			if ctx.Err() == nil && (errors.Is(call.err, context.Canceled) || errors.Is(call.err, context.DeadlineExceeded)) {
				continue
			}
			return call.val, OutcomeCoalesced, false, call.err
		case <-ctx.Done():
			return val, OutcomeCoalesced, false, ctx.Err()
		}
	}
	call := c.free
	if call != nil {
		c.free, call.next = call.next, nil
	} else {
		call = &inflightCall[V]{}
	}
	c.inflight[key] = call
	c.mu.Unlock()
	c.misses.Add(1)

	// The inflight entry must be cleared and waiters released even if decode
	// panics (net/http recovers handler panics, so a stuck entry would wedge
	// the key forever); the deferred cleanup runs before the panic unwinds
	// past us, and waiters see the zero-value error path. The return values
	// are copied out before it runs, so it may recycle an unjoined record;
	// it sets owned, which it alone can know.
	call.err = errDecodePanicked
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		kept := false
		if call.err == nil {
			// Admission never violates the budget: an entry that alone
			// exceeds it bypasses the cache entirely (it would pin the cache
			// over budget until an unrelated miss evicted it), and any other
			// admission evicts LRU entries until the budget holds again.
			if bytes := c.charge(call.val); c.admits(bytes) {
				kept = true
				e := &tileEntry[V]{key: key, val: call.val, bytes: bytes}
				c.entries[key] = e
				c.pushFront(e)
				c.size += e.bytes
				for c.size > c.maxBytes {
					lru := c.head.prev
					c.unlink(lru)
					delete(c.entries, lru.key)
					c.size -= lru.bytes
					c.evictions.Add(1)
				}
			}
		}
		if call.done != nil {
			close(call.done)
		} else {
			*call = inflightCall[V]{next: c.free}
			c.free = call
			owned = !kept
		}
		c.mu.Unlock()
	}()
	call.val, call.err = decode()
	return call.val, OutcomeMiss, false, call.err
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
}

// Stats returns the current counters and occupancy.
func (c *Cache[V]) Stats() CacheStats {
	c.mu.Lock()
	entries, size := len(c.entries), c.size
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		Bytes:     size,
		MaxBytes:  c.maxBytes,
	}
}
