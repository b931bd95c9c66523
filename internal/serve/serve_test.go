package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pj2k/internal/dwt"
	"pj2k/internal/faultinject"
	"pj2k/internal/jp2k"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

func testImage() *raster.Image { return raster.Synthetic(230, 190, 99) }

func encodeTest(t testing.TB, im *raster.Image) []byte {
	t.Helper()
	cs, _, err := jp2k.Encode(im, jp2k.Options{
		Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 1.0},
		TileW: 96, TileH: 80, Levels: 3, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func newTestServer(t testing.TB, cacheBytes int64) (*Server, []byte) {
	t.Helper()
	cs := encodeTest(t, testImage())
	store := NewStore()
	if _, err := store.Add("test", cs); err != nil {
		t.Fatal(err)
	}
	return New(store, Options{CacheBytes: cacheBytes}), cs
}

// --- Cache unit tests.

func tile(w, h int) *raster.Planar { return raster.Gray(raster.New(w, h)) }

func TestCacheLRUEviction(t *testing.T) {
	// Each 10x10 tile costs 400 + tileOverhead bytes; budget fits two.
	per := int64(400 + tileOverhead)
	c := NewCache(2 * per)
	get := func(id int) {
		_, _, err := c.GetOrDecode(context.Background(), TileKey{Image: "a", TX: id}, func() (*raster.Planar, error) {
			return tile(10, 10), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	get(0)
	get(1)
	get(0) // refresh 0: LRU order is now (0, 1)
	get(2) // evicts 1
	get(0) // hit
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 2*per {
		t.Fatalf("entries %d bytes %d, want 2 entries %d bytes", st.Entries, st.Bytes, 2*per)
	}
	if st.Evictions != 1 {
		t.Fatalf("%d evictions, want 1", st.Evictions)
	}
	if st.Hits != 2 || st.Misses != 3 {
		t.Fatalf("hits %d misses %d, want 2/3", st.Hits, st.Misses)
	}
	// Tile 1 must re-decode (was evicted), tile 0 must not.
	decoded := 0
	c.GetOrDecode(context.Background(), TileKey{Image: "a", TX: 1}, func() (*raster.Planar, error) {
		decoded++
		return tile(10, 10), nil
	})
	c.GetOrDecode(context.Background(), TileKey{Image: "a", TX: 0}, func() (*raster.Planar, error) {
		decoded++
		return tile(10, 10), nil
	})
	if decoded != 1 {
		t.Fatalf("%d decodes after eviction round, want 1", decoded)
	}
}

// TestCacheBudgetNeverExceeded is the admission-policy regression test: no
// insert may leave the cache over budget. The old admission cached a new
// entry even when it alone exceeded maxBytes (the eviction loop refused to
// evict the entry it had just linked), pinning the cache over budget until
// some later miss happened to shrink it.
func TestCacheBudgetNeverExceeded(t *testing.T) {
	per := int64(400 + tileOverhead) // one 10x10 tile
	c := NewCache(2 * per)
	check := func(when string) {
		t.Helper()
		if st := c.Stats(); st.Bytes > st.MaxBytes {
			t.Fatalf("%s: cache %d bytes over budget %d", when, st.Bytes, st.MaxBytes)
		}
	}
	insert := func(key TileKey, w, h int) {
		t.Helper()
		if _, _, err := c.GetOrDecode(context.Background(), key, func() (*raster.Planar, error) { return tile(w, h), nil }); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after %dx%d insert", w, h))
	}
	insert(TileKey{Image: "a", TX: 0}, 10, 10)
	insert(TileKey{Image: "a", TX: 1}, 10, 10)
	// An entry larger than the whole budget must bypass admission entirely —
	// and must not evict the resident entries to make room for nothing.
	insert(TileKey{Image: "a", TX: 2}, 40, 40)
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 2*per {
		t.Fatalf("oversized insert disturbed the cache: %d entries, %d bytes; want 2 entries, %d bytes",
			st.Entries, st.Bytes, 2*per)
	}
	// An entry that fits only alone evicts everything else, not nothing.
	insert(TileKey{Image: "a", TX: 3}, 14, 14) // 784+160 bytes < 2*per, > per
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("near-budget insert kept %d entries resident, want 1", st.Entries)
	}
	// The oversized variant decodes every time (never cached) but stays
	// correct and budget-clean.
	insert(TileKey{Image: "a", TX: 2}, 40, 40)
	if st := c.Stats(); st.Misses != 5 {
		t.Fatalf("oversized entry was cached: %d misses, want 5", st.Misses)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(1 << 20)
	fail := true
	decode := func() (*raster.Planar, error) {
		if fail {
			return nil, fmt.Errorf("boom")
		}
		return tile(4, 4), nil
	}
	if _, _, err := c.GetOrDecode(context.Background(), TileKey{Image: "x"}, decode); err == nil {
		t.Fatal("want error")
	}
	fail = false
	if _, _, err := c.GetOrDecode(context.Background(), TileKey{Image: "x"}, decode); err != nil {
		t.Fatalf("error was cached: %v", err)
	}
}

// TestCachePanicSafety: a panicking decode must unwedge the key — the
// inflight entry is cleared and waiters are released with an error, so the
// next request can retry instead of blocking forever.
func TestCachePanicSafety(t *testing.T) {
	c := NewCache(1 << 20)
	key := TileKey{Image: "a"}
	func() {
		defer func() { recover() }()
		c.GetOrDecode(context.Background(), key, func() (*raster.Planar, error) { panic("decoder bug") })
		t.Fatal("panic did not propagate")
	}()
	done := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrDecode(context.Background(), key, func() (*raster.Planar, error) { return tile(2, 2), nil })
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("retry after panic failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("key wedged: retry after panic blocked")
	}
}

// TestCachePanicReachesWaiters: when the leading decode panics, every
// coalesced waiter gets errDecodePanicked (the placeholder each miss stores
// up front, so no error value is built on the happy path), nothing is cached
// and no in-flight entry is left behind.
func TestCachePanicReachesWaiters(t *testing.T) {
	c := NewCache(1 << 20)
	key := TileKey{Image: "a"}
	entered, release := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.GetOrDecode(context.Background(), key, func() (*raster.Planar, error) {
			close(entered)
			<-release
			panic("decoder bug")
		})
	}()
	<-entered
	const waiters = 3
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, co, err := c.GetOrDecode(context.Background(), key, func() (*raster.Planar, error) {
				return tile(2, 2), nil
			})
			if co != cacheCoalesced {
				err = fmt.Errorf("outcome %v, want coalesced (err %v)", co, err)
			}
			errs <- err
		}()
	}
	for c.Stats().Coalesced < waiters {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, errDecodePanicked) {
			t.Errorf("waiter got %v, want %v", err, errDecodePanicked)
		}
	}
	c.mu.Lock()
	inflight, entries := len(c.inflight), len(c.entries)
	c.mu.Unlock()
	if inflight != 0 || entries != 0 {
		t.Fatalf("after a panicked decode: %d in-flight entries, %d cached, want 0 and 0", inflight, entries)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache(1 << 20)
	var decodes atomic.Int64
	release := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	results := make([]*raster.Planar, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			im, _, err := c.GetOrDecode(context.Background(), TileKey{Image: "a"}, func() (*raster.Planar, error) {
				decodes.Add(1)
				<-release
				return tile(8, 8), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = im
		}(i)
	}
	// Let the herd pile up on the key, then release the one decode.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := decodes.Load(); n != 1 {
		t.Fatalf("%d decodes for %d concurrent requests, want 1", n, waiters)
	}
	for i := 1; i < waiters; i++ {
		if results[i] != results[0] {
			t.Fatal("coalesced callers got different images")
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != waiters-1 {
		t.Fatalf("misses %d coalesced %d, want 1/%d", st.Misses, st.Coalesced, waiters-1)
	}
}

// TestCoalescedWaitersWake: N callers join one in-flight miss — the first of
// them makes the wake channel, the rest reuse it — and every one wakes when
// the leader's decode ends, with the leader's tile, or in the second case
// with its error; nothing is cached after the error and no entry stays in
// flight.
func TestCoalescedWaitersWake(t *testing.T) {
	decodeErr := errors.New("decode failed")
	for _, fail := range []bool{false, true} {
		c := NewCache(1 << 20)
		key := TileKey{Image: "a"}
		want := tile(8, 8)
		entered, release := make(chan struct{}), make(chan struct{})
		leader := make(chan error, 1)
		go func() {
			pl, _, err := c.GetOrDecode(context.Background(), key, func() (*raster.Planar, error) {
				close(entered)
				<-release
				if fail {
					return nil, decodeErr
				}
				return want, nil
			})
			if err == nil && pl != want {
				err = fmt.Errorf("leader got %p, want %p", pl, want)
			}
			leader <- err
		}()
		<-entered
		const waiters = 8
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pl, outcome, err := c.GetOrDecode(context.Background(), key, func() (*raster.Planar, error) {
					return nil, fmt.Errorf("waiter %d decoded", i)
				})
				switch {
				case outcome != cacheCoalesced:
					t.Errorf("fail=%v waiter %d: outcome %v, want coalesced", fail, i, outcome)
				case fail && (pl != nil || !errors.Is(err, decodeErr)):
					t.Errorf("fail=%v waiter %d: %p, %v; want the leader's error", fail, i, pl, err)
				case !fail && (pl != want || err != nil):
					t.Errorf("fail=%v waiter %d: %p, %v; want the leader's tile %p", fail, i, pl, err, want)
				}
			}()
		}
		for c.Stats().Coalesced < waiters {
			time.Sleep(time.Millisecond)
		}
		close(release)
		wg.Wait()
		if err := <-leader; fail != errors.Is(err, decodeErr) || (!fail && err != nil) {
			t.Fatalf("fail=%v: leader returned %v", fail, err)
		}
		c.mu.Lock()
		inflight := len(c.inflight)
		c.mu.Unlock()
		if st := c.Stats(); inflight != 0 || st.Misses != 1 || st.Entries != map[bool]int{false: 1, true: 0}[fail] {
			t.Fatalf("fail=%v: %d in flight, stats %+v", fail, inflight, st)
		}
	}
}

// A coalesced waiter shares the leader's decode, not the leader's fate: when
// the leader's request context ends mid-decode, waiters whose own contexts are
// live must still get the tile — one of them leads the next decode, the other
// joins it or finds it cached.
func TestCoalescedWaiterSurvivesLeaderCancel(t *testing.T) {
	c := NewCache(1 << 20)
	key := TileKey{Image: "a"}
	var decodes atomic.Int64
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	entered, release := make(chan struct{}), make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrDecode(leaderCtx, key, func() (*raster.Planar, error) {
			decodes.Add(1)
			close(entered)
			<-release
			// What the decoder does between stages once its context ended.
			if err := leaderCtx.Err(); err != nil {
				return nil, fmt.Errorf("decode: %w", err)
			}
			return tile(8, 8), nil
		})
		leaderErr <- err
	}()
	<-entered
	var wg sync.WaitGroup
	results := make([]*raster.Planar, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pl, _, err := c.GetOrDecode(context.Background(), key, func() (*raster.Planar, error) {
				decodes.Add(1)
				return tile(8, 8), nil
			})
			if err != nil {
				t.Errorf("live waiter %d inherited the leader's fate: %v", i, err)
			}
			results[i] = pl
		}(i)
	}
	for c.Stats().Coalesced < 2 {
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	close(release)
	wg.Wait()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: %v, want its own cancellation", err)
	}
	if results[0] == nil || results[0] != results[1] {
		t.Fatalf("waiters got %p and %p, want one shared tile", results[0], results[1])
	}
	if n := decodes.Load(); n != 2 {
		t.Fatalf("%d decodes, want 2 (the cancelled one and one re-led)", n)
	}
}

// TestRecycledInflightRecords: the record of a miss nobody joined goes back
// on the cache's free list and serves the next miss; a record that had
// waiters never does. Each round runs sequential unjoined misses, then one
// miss that waiters join while other goroutines churn unjoined misses through
// the free list, then releases it; every caller must get its own key's tile
// (by identity) or its own key's error. The cache admits nothing, so every
// lookup is a miss. Run under -race in CI.
func TestRecycledInflightRecords(t *testing.T) {
	c := newWireCache(-1)
	ctx := context.Background()
	tileOf := func(k TileKey) []byte { return []byte(fmt.Sprintf("%s/%d/%d", k.Image, k.TX, k.Layers)) }
	errOf := func(k TileKey) error { return fmt.Errorf("decode %v failed", k) }
	check := func(who string, k TileKey, got []byte, err error, want []byte, fail bool) {
		t.Helper()
		switch {
		case fail && !(err != nil && err.Error() == errOf(k).Error()):
			t.Errorf("%s on %v: %q, %v; want its own error", who, k, got, err)
		case !fail && (err != nil || !bytes.Equal(got, tileOf(k)) || (want != nil && &got[0] != &want[0])):
			t.Errorf("%s on %v: %q, %v; want its own tile", who, k, got, err)
		}
	}
	const rounds, churners, waiters = 40, 3, 4
	for round := range rounds {
		fail := round%3 == 2
		for i := range 4 {
			k := TileKey{Image: "seq", TX: i, Layers: round}
			got, co, err := c.GetOrDecode(ctx, k, func() ([]byte, error) { return tileOf(k), nil })
			if co != cacheMiss {
				t.Fatalf("sequential lookup of %v: %v, want a miss", k, co)
			}
			check("sequential miss", k, got, err, nil, false)
		}

		joined := TileKey{Image: "joined", Layers: round}
		want := tileOf(joined)
		entered, release := make(chan struct{}), make(chan struct{})
		leader := make(chan error, 1)
		go func() {
			got, _, err := c.GetOrDecode(ctx, joined, func() ([]byte, error) {
				close(entered)
				<-release
				if fail {
					return nil, errOf(joined)
				}
				return want, nil
			})
			if !fail && err == nil && &got[0] != &want[0] {
				err = fmt.Errorf("leader got %q, not its own tile", got)
			}
			if fail && err != nil && err.Error() == errOf(joined).Error() {
				err = nil
			}
			leader <- err
		}()
		<-entered
		c.mu.Lock()
		rec := c.inflight[joined]
		c.mu.Unlock()
		coalesced := c.Stats().Coalesced
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := range churners {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					k := TileKey{Image: "churn", TX: g, Layers: round*1000 + n}
					got, _, err := c.GetOrDecode(ctx, k, func() ([]byte, error) { return tileOf(k), nil })
					check("churning miss", k, got, err, nil, false)
				}
			}()
		}
		var ww sync.WaitGroup
		for range waiters {
			ww.Add(1)
			go func() {
				defer ww.Done()
				got, co, err := c.GetOrDecode(ctx, joined, func() ([]byte, error) {
					return nil, errors.New("a waiter decoded")
				})
				if co != cacheCoalesced {
					t.Errorf("waiter on %v: %v, want coalesced", joined, co)
				}
				check("waiter", joined, got, err, want, fail)
			}()
		}
		for c.Stats().Coalesced < coalesced+waiters {
			time.Sleep(100 * time.Microsecond)
		}
		close(release)
		ww.Wait()
		close(stop)
		wg.Wait()
		if err := <-leader; err != nil {
			t.Fatalf("round %d leader: %v", round, err)
		}
		c.mu.Lock()
		free := 0
		for r := c.free; r != nil; r = r.next {
			if r == rec {
				t.Errorf("round %d: the joined miss's record was recycled", round)
			}
			free++
		}
		inflight := len(c.inflight)
		c.mu.Unlock()
		if inflight != 0 || free > churners+1 {
			t.Fatalf("round %d: %d in flight, %d free records; want 0 and at most %d", round, inflight, free, churners+1)
		}
	}
}

// TestGetOrDecodeOwnership: getOrDecode hands a miss's value to its caller
// (owned) only when nobody else can hold it: the cache did not keep it and no
// waiter joined. A hit, a kept miss, a joined miss's leader and its waiters —
// with the cache on or off — must not be told they own the value, or the
// server would recycle a tile the cache or a waiter still reads; an unjoined
// miss with the cache off, or of a value too large to admit, is owned.
func TestGetOrDecodeOwnership(t *testing.T) {
	ctx := context.Background()
	value := func(n int) func() ([]byte, error) {
		return func() ([]byte, error) { return make([]byte, n), nil }
	}
	lookup := func(c *Cache[[]byte], key TileKey, n int) (cacheOutcome, bool) {
		t.Helper()
		_, co, owned, err := c.getOrDecode(ctx, key, value(n))
		if err != nil {
			t.Fatal(err)
		}
		return co, owned
	}
	// joinedMiss leads a miss on key that waiters join before it finishes,
	// and returns the leader's and every waiter's owned report.
	joinedMiss := func(c *Cache[[]byte], key TileKey, waiters int) (leader bool, joined []bool) {
		t.Helper()
		entered, release := make(chan struct{}), make(chan struct{})
		done := make(chan bool)
		go func() {
			_, _, owned, err := c.getOrDecode(ctx, key, func() ([]byte, error) {
				close(entered)
				<-release
				return make([]byte, 64), nil
			})
			if err != nil {
				t.Error(err)
			}
			done <- owned
		}()
		<-entered
		before := c.Stats().Coalesced
		joined = make([]bool, waiters)
		var wg sync.WaitGroup
		for i := range waiters {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, co, owned, err := c.getOrDecode(ctx, key, value(64))
				if err != nil || co != cacheCoalesced {
					t.Errorf("waiter %d on %v: %v, %v; want coalesced", i, key, co, err)
				}
				joined[i] = owned
			}()
		}
		for c.Stats().Coalesced < before+int64(waiters) {
			time.Sleep(100 * time.Microsecond)
		}
		close(release)
		wg.Wait()
		return <-done, joined
	}
	const waiters = 4
	for _, tc := range []struct {
		name     string
		maxBytes int64
	}{{"cache on", 1 << 20}, {"cache off", -1}} {
		c := newWireCache(tc.maxBytes)
		on := tc.maxBytes > 0
		k := TileKey{Image: "a"}
		if co, owned := lookup(c, k, 64); co != cacheMiss || owned == on {
			t.Errorf("%s: unjoined miss: %v, owned %v; want a miss, owned %v", tc.name, co, owned, !on)
		}
		if on {
			if co, owned := lookup(c, k, 64); co != cacheHit || owned {
				t.Errorf("%s: hit: %v, owned %v; want a hit, not owned", tc.name, co, owned)
			}
			// Twice the budget: never admitted, so its caller owns it.
			big := TileKey{Image: "big"}
			if co, owned := lookup(c, big, 2<<20); co != cacheMiss || !owned {
				t.Errorf("%s: over-budget miss: %v, owned %v; want a miss, owned", tc.name, co, owned)
			}
		}
		leader, joined := joinedMiss(c, TileKey{Image: "joined"}, waiters)
		if leader {
			t.Errorf("%s: the leader of a joined miss was told it owns the tile", tc.name)
		}
		for i, owned := range joined {
			if owned {
				t.Errorf("%s: waiter %d was told it owns the leader's tile", tc.name, i)
			}
		}
	}
}

// --- Server integration tests.

func fetchPGM(t *testing.T, ts *httptest.Server, path string) *raster.Image {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s: %d: %s", path, resp.StatusCode, body)
	}
	im, err := readPGM(resp.Body)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return im
}

// TestServerRegionMatchesDecode asserts the served window equals cropping a
// straight jp2k.Decode at every reduce level — the HTTP layer, the tile
// assembly and the cache must be invisible in the pixels.
func TestServerRegionMatchesDecode(t *testing.T) {
	srv, cs := newTestServer(t, 1<<20)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, reduce := range []int{0, 1, 2} {
		full, err := jp2k.Decode(cs, jp2k.DecodeOptions{DiscardLevels: reduce})
		if err != nil {
			t.Fatal(err)
		}
		full.ClampTo8()
		w, h := full.Width, full.Height
		windows := []jp2k.Rect{
			{X0: 0, Y0: 0, X1: w, Y1: h},
			{X0: w / 4, Y0: h / 4, X1: 3 * w / 4, Y1: 3 * h / 4},
			{X0: w - 1, Y0: 0, X1: w, Y1: 1},
		}
		for _, win := range windows {
			path := fmt.Sprintf("/img/test?x0=%d&y0=%d&x1=%d&y1=%d&reduce=%d",
				win.X0, win.Y0, win.X1, win.Y1, reduce)
			got := fetchPGM(t, ts, path)
			if got.Width != win.Dx() || got.Height != win.Dy() {
				t.Fatalf("%s: got %dx%d", path, got.Width, got.Height)
			}
			for y := 0; y < got.Height; y++ {
				for x := 0; x < got.Width; x++ {
					if got.At(x, y) != full.At(win.X0+x, win.Y0+y) {
						t.Fatalf("%s: pixel (%d,%d) = %d, want %d",
							path, x, y, got.At(x, y), full.At(win.X0+x, win.Y0+y))
					}
				}
			}
		}
	}
}

// TestServerCacheHitsSkipDecoding is the acceptance check for the tile
// cache: repeating a request must not run tier-1 again, observable through
// the decode and hit counters.
func TestServerCacheHitsSkipDecoding(t *testing.T) {
	srv, _ := newTestServer(t, 64<<20)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	const path = "/img/test?x0=10&y0=10&x1=150&y1=120"
	a := fetchPGM(t, ts, path)
	decodesAfterFirst := srv.TileDecodes()
	if decodesAfterFirst == 0 {
		t.Fatal("first request performed no tile decodes")
	}
	b := fetchPGM(t, ts, path)
	if n := srv.TileDecodes(); n != decodesAfterFirst {
		t.Fatalf("repeat request decoded tiles: %d -> %d", decodesAfterFirst, n)
	}
	if !raster.Equal(a, b) {
		t.Fatal("cached response differs")
	}
	st := srv.cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("no cache hits recorded: %+v", st)
	}
	// A different variant (other reduce) misses and decodes afresh.
	fetchPGM(t, ts, path+"&reduce=1")
	if srv.TileDecodes() == decodesAfterFirst {
		t.Fatal("reduce=1 variant served from reduce=0 tiles")
	}
}

// TestServerConcurrentRegions hammers the server from many goroutines with
// overlapping windows across reduce/layer variants; run under -race this is
// the data-race gate for the whole serve path (cache, singleflight, pooled
// decoders). Every response is verified against the reference decode.
func TestServerConcurrentRegions(t *testing.T) {
	srv, cs := newTestServer(t, 1<<20) // small cache: force eviction churn
	ts := httptest.NewServer(srv)
	defer ts.Close()
	refs := make([]*raster.Image, 3)
	for reduce := range refs {
		ref, err := jp2k.Decode(cs, jp2k.DecodeOptions{DiscardLevels: reduce})
		if err != nil {
			t.Fatal(err)
		}
		ref.ClampTo8()
		refs[reduce] = ref
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 12; i++ {
				reduce := rng.Intn(3)
				ref := refs[reduce]
				x0, y0 := rng.Intn(ref.Width), rng.Intn(ref.Height)
				x1, y1 := x0+1+rng.Intn(ref.Width-x0), y0+1+rng.Intn(ref.Height-y0)
				layers := rng.Intn(3)
				path := fmt.Sprintf("/img/test?x0=%d&y0=%d&x1=%d&y1=%d&reduce=%d&layers=%d",
					x0, y0, x1, y1, reduce, layers)
				resp, err := ts.Client().Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				im, err := readPGM(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				if im.Width != x1-x0 || im.Height != y1-y0 {
					t.Errorf("%s: got %dx%d", path, im.Width, im.Height)
					return
				}
				if layers == 0 || layers == 2 { // full-quality variants match the reference
					for y := 0; y < im.Height; y++ {
						for x := 0; x < im.Width; x++ {
							if im.At(x, y) != ref.At(x0+x, y0+y) {
								t.Errorf("%s: pixel (%d,%d) mismatch", path, x, y)
								return
							}
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// fetchRaw fetches a format=raw window and decodes the payload per the
// response headers: 1 byte/sample when X-PJ2K-Max-Value <= 255, big-endian
// 2 bytes/sample otherwise — the negotiation every raw client must do.
func fetchRaw(t *testing.T, ts *httptest.Server, path string) (*raster.Planar, int) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d: %s", path, resp.StatusCode, body)
	}
	atoi := func(name string) int {
		v, err := strconv.Atoi(resp.Header.Get(name))
		if err != nil {
			t.Fatalf("%s: bad %s header %q", path, name, resp.Header.Get(name))
		}
		return v
	}
	w, h, ncomp, maxval := atoi("X-PJ2K-Width"), atoi("X-PJ2K-Height"), atoi("X-PJ2K-Components"), atoi("X-PJ2K-Max-Value")
	width := 1
	if maxval > 255 {
		width = 2
	}
	if len(body) != w*h*ncomp*width {
		t.Fatalf("%s: %d payload bytes for %dx%dx%d at %d bytes/sample", path, len(body), w, h, ncomp, width)
	}
	pl := raster.NewPlanar(w, h, ncomp)
	for ci := 0; ci < ncomp; ci++ {
		for i := 0; i < w*h; i++ {
			off := (ci*w*h + i) * width
			v := int32(body[off])
			if width == 2 {
				v = v<<8 | int32(body[off+1])
			}
			pl.Comps[ci].Pix[i] = v
		}
	}
	return pl, maxval
}

// TestServerRawBothWidths pins the raw wire format at both sample widths: an
// 8-bit stream ships 1 byte/sample, a 12-bit stream ships 2 bytes/sample,
// and both decode (per the headers alone) to the reference decode's pixels.
func TestServerRawBothWidths(t *testing.T) {
	im8 := testImage()
	deep := raster.Synthetic(120, 90, 7)
	for i, v := range deep.Pix {
		deep.Pix[i] = v << 4 // spread the 8-bit synthetic ramp over 12 bits
	}
	cs12, _, err := jp2k.Encode(deep, jp2k.Options{
		Kernel: dwt.Irr97, LayerBPP: []float64{2.0}, BitDepth: 12, Levels: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	if _, err := store.Add("gray8", encodeTest(t, im8)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Add("gray12", cs12); err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{CacheBytes: 1 << 20})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	pl8, maxval8 := fetchRaw(t, ts, "/img/gray8?format=raw&x0=3&y0=5&x1=83&y1=45")
	if maxval8 != 255 {
		t.Fatalf("8-bit stream: maxval %d, want 255", maxval8)
	}
	ref8 := fetchPGM(t, ts, "/img/gray8?x0=3&y0=5&x1=83&y1=45")
	if !raster.Equal(pl8.Comps[0], ref8) {
		t.Fatal("8-bit raw pixels differ from the PGM response")
	}

	pl12, maxval12 := fetchRaw(t, ts, "/img/gray12?format=raw")
	if maxval12 != 4095 {
		t.Fatalf("12-bit stream: maxval %d, want 4095", maxval12)
	}
	ref12, err := jp2k.Decode(cs12, jp2k.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ref12.Pix {
		ref12.Pix[i] = min(max(v, 0), 4095)
	}
	if !raster.Equal(pl12.Comps[0], ref12) {
		t.Fatal("12-bit raw pixels differ from the reference decode")
	}
}

// TestServerSharedPoolConcurrentRequests drives overlapping window requests
// through a server whose tile decodes run at TileWorkers > 1, so every
// request's tier-1/DWT dispatches land concurrently on the server's one
// shared worker pool — under -race this is the gate for concurrent
// Pool.TasksIDMax use from independent HTTP requests.
func TestServerSharedPoolConcurrentRequests(t *testing.T) {
	cs := encodeTest(t, testImage())
	store := NewStore()
	if _, err := store.Add("test", cs); err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{CacheBytes: -1, TileWorkers: 3}) // no cache: every request decodes
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ref, err := jp2k.Decode(cs, jp2k.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref.ClampTo8()
	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				x0, y0 := (g*17+i*11)%120, (g*13+i*7)%100
				path := fmt.Sprintf("/img/test?x0=%d&y0=%d&x1=%d&y1=%d", x0, y0, x0+64, y0+48)
				resp, err := ts.Client().Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				im, err := readPGM(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				for y := 0; y < im.Height; y++ {
					for x := 0; x < im.Width; x++ {
						if im.At(x, y) != ref.At(x0+x, y0+y) {
							t.Errorf("%s: pixel (%d,%d) mismatch", path, x, y)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServerStreamEndpoint verifies the progressive-refinement slice: the
// truncated codestream from /stream decodes identically to MaxLayers.
func TestServerStreamEndpoint(t *testing.T) {
	srv, cs := newTestServer(t, 1<<20)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/img/test/stream?layers=1")
	if err != nil {
		t.Fatal(err)
	}
	trunc, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(trunc)) {
		t.Fatalf("Content-Length %q on a %d-byte stream", cl, len(trunc))
	}
	if len(trunc) >= len(cs) {
		t.Fatalf("1-layer stream (%d bytes) not smaller than original (%d)", len(trunc), len(cs))
	}
	got, err := jp2k.Decode(trunc, jp2k.DecodeOptions{})
	if err != nil {
		t.Fatalf("decoding truncated stream: %v", err)
	}
	want, err := jp2k.Decode(cs, jp2k.DecodeOptions{MaxLayers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(got, want) {
		t.Fatal("served layer prefix decodes differently from MaxLayers=1")
	}
}

func TestServerInfoAndErrors(t *testing.T) {
	srv, _ := newTestServer(t, 1<<20)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for path, want := range map[string]int{
		"/img/test/info":          http.StatusOK,
		"/img/nosuch":             http.StatusNotFound,
		"/img/nosuch/info":        http.StatusNotFound,
		"/img/test?x0=bogus":      http.StatusBadRequest,
		"/img/test?x0=900&x1=950": http.StatusBadRequest,
		"/img/test?format=tiff":   http.StatusBadRequest,
		"/stats":                  http.StatusOK,
		"/img/test?x0=5&x1=4":     http.StatusBadRequest,
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	var body bytes.Buffer
	resp, _ := ts.Client().Get(ts.URL + "/img/test/info")
	io.Copy(&body, resp.Body)
	resp.Body.Close()
	for _, frag := range []string{`"width": 230`, `"height": 190`, `"layers": 2`, `"reductions"`} {
		if !bytes.Contains(body.Bytes(), []byte(frag)) {
			t.Errorf("info response missing %s: %s", frag, body.String())
		}
	}
}

// TestInfoFailsOnUnindexableTile: a tile whose packet map cannot be built
// makes /info a 500, never a 200 whose packet_bytes silently leaves the tile
// out. A resilient /region over that tile still serves it concealed, without
// an X-PJ2K-Packet-Bytes header rather than with an under-reported one; a
// window over healthy tiles keeps the header.
func TestInfoFailsOnUnindexableTile(t *testing.T) {
	cs, _, err := jp2k.Encode(testImage(), jp2k.Options{
		Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 1.0}, TileW: 96, TileH: 80, Levels: 3,
		Resilience: jp2k.ResilienceOptions{SOP: true, EPH: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Clear the empty-bit of tile 0's first non-empty packet (its first
	// header byte, after the 6-byte SOP): the header then ends before its
	// EPH, which the index's strict walk rejects and the resilient decode
	// resyncs past.
	body := faultinject.TileBodies(cs)[0]
	hdr := -1
	for i := body.Off; i+6 < body.End() && hdr < 0; i++ {
		if cs[i] == 0xFF && cs[i+1] == 0x91 && cs[i+6]&0x80 != 0 {
			hdr = i + 6
		}
	}
	if hdr < 0 {
		t.Fatal("tile 0 has no non-empty packet to damage")
	}
	cs[hdr] = 0
	store := NewStore() // AddSource: packet maps build on first touch
	if _, err := store.AddSource("bad", t2.BytesSource(cs)); err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{Resilient: true})
	defer srv.Close()
	if rec := get(t, srv, "/img/bad/info"); rec.Code != http.StatusInternalServerError {
		t.Fatalf("/info over an unindexable tile: %d %q, want 500", rec.Code, rec.Body.String())
	}
	rec := get(t, srv, "/img/bad?x0=0&y0=0&x1=96&y1=80&format=raw")
	if rec.Code != http.StatusOK {
		t.Fatalf("/region over the damaged tile: %d %q", rec.Code, rec.Body.String())
	}
	if n, ok := rec.Header()["X-Pj2k-Packet-Bytes"]; ok {
		t.Fatalf("/region over the damaged tile reports %v packet bytes", n)
	}
	rec = get(t, srv, "/img/bad?x0=96&y0=0&x1=192&y1=80&format=raw")
	if rec.Code != http.StatusOK || rec.Header().Get("X-PJ2K-Packet-Bytes") == "" {
		t.Fatalf("/region over healthy tiles: %d, X-PJ2K-Packet-Bytes %q", rec.Code, rec.Header().Get("X-PJ2K-Packet-Bytes"))
	}
}

// --- Cache benchmarks (the hot/cold split a serving fleet sizes against).

func BenchmarkServeTileCache(b *testing.B) {
	cs := encodeTest(b, testImage())
	store := NewStore()
	if _, err := store.Add("bench", cs); err != nil {
		b.Fatal(err)
	}
	img, _ := store.Get("bench")
	colW, rowH := img.Grid(0)
	b.Run("hit", func(b *testing.B) {
		srv := New(store, Options{CacheBytes: 64 << 20})
		key := TileKey{Image: "bench", TX: 0, TY: 0}
		decode := func() ([]byte, error) {
			tile, _, err := srv.decodeTile(context.Background(), img, img.src, colW, rowH, 0, 0, 0, 0, 255, nil)
			return tile, err
		}
		if _, _, err := srv.cache.GetOrDecode(context.Background(), key, decode); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := srv.cache.GetOrDecode(context.Background(), key, decode); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		srv := New(store, Options{CacheBytes: 64 << 20})
		decode := func() ([]byte, error) {
			tile, _, err := srv.decodeTile(context.Background(), img, img.src, colW, rowH, 0, 0, 0, 0, 255, nil)
			return tile, err
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A distinct key per iteration: every lookup is a cold miss.
			if _, _, err := srv.cache.GetOrDecode(context.Background(), TileKey{Image: "bench", Layers: i + 1}, decode); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// readPGM reads a one-component PNM response body.
func readPGM(r io.Reader) (*raster.Image, error) {
	pl, _, err := raster.ReadPNM(r)
	if err != nil {
		return nil, err
	}
	if pl.NComp() != 1 {
		return nil, fmt.Errorf("expected PGM, got %d-component PNM", pl.NComp())
	}
	return pl.Comps[0], nil
}
