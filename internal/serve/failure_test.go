package serve

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pj2k/internal/dwt"
	"pj2k/internal/faultinject"
	"pj2k/internal/jp2k"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// --- Failure-path tests: shedding, panics, deadlines, degraded decodes.

func get(t *testing.T, srv *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", path, nil)
	srv.ServeHTTP(rec, req)
	return rec
}

// jamTile parks a never-finishing inflight entry on the given tile key, so
// any request touching it blocks in the cache until its context ends. The
// returned func unjams (releasing zero waiters — callers arrange that none
// remain).
func jamTile(srv *Server, key TileKey) func() {
	call := &inflightCall[[]byte]{done: make(chan struct{})}
	srv.cache.mu.Lock()
	srv.cache.inflight[key] = call
	srv.cache.mu.Unlock()
	return func() {
		srv.cache.mu.Lock()
		delete(srv.cache.inflight, key)
		srv.cache.mu.Unlock()
	}
}

func TestServerShedsAtCapacity(t *testing.T) {
	cs := encodeTest(t, testImage())
	store := NewStore()
	if _, err := store.Add("test", cs); err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{MaxInFlight: 1})
	defer srv.Close()

	// Occupy the only admission slot.
	srv.inflight <- struct{}{}
	for _, path := range []string{"/img/test?x1=8&y1=8", "/img/test/stream"} {
		rec := get(t, srv, path)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s at capacity: got %d, want 503", path, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s: shed response missing Retry-After", path)
		}
	}
	if rec := get(t, srv, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz at capacity: got %d, want 503", rec.Code)
	}
	// Liveness is orthogonal to saturation.
	if rec := get(t, srv, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz at capacity: got %d, want 200", rec.Code)
	}
	if n := srv.shed.Value(); n != 2 {
		t.Fatalf("shed counter %d, want 2", n)
	}

	// Slot freed: requests and readiness recover.
	<-srv.inflight
	if rec := get(t, srv, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz after release: got %d, want 200", rec.Code)
	}
	if rec := get(t, srv, "/img/test?x1=8&y1=8"); rec.Code != http.StatusOK {
		t.Fatalf("request after release: got %d, want 200", rec.Code)
	}
}

// TestInfoShedsAtCapacity: /info builds every tile's packet map, reading each
// tile body on a cold index, so it is admitted like /img and /stream: with
// the only slot held it answers 503 with Retry-After and counts as shed.
func TestInfoShedsAtCapacity(t *testing.T) {
	store := NewStore()
	if _, err := store.Add("test", encodeTest(t, testImage())); err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{MaxInFlight: 1})
	defer srv.Close()

	srv.inflight <- struct{}{}
	rec := get(t, srv, "/img/test/info")
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("/info at capacity: got %d, Retry-After %q; want 503 with Retry-After", rec.Code, rec.Header().Get("Retry-After"))
	}
	if n := srv.shed.Value(); n != 1 {
		t.Fatalf("shed counter %d, want 1", n)
	}
	<-srv.inflight
	if rec := get(t, srv, "/img/test/info"); rec.Code != http.StatusOK {
		t.Fatalf("/info after release: got %d, want 200", rec.Code)
	}
}

func TestServerPanicRecovery(t *testing.T) {
	srv, _ := newTestServer(t, defaultCacheBytes)
	defer srv.Close()
	var recovered any
	srv.panicHook = func(v any) { recovered = v }
	srv.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})

	if rec := get(t, srv, "/boom"); rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: got %d, want 500", rec.Code)
	}
	if recovered != "kaboom" {
		t.Fatalf("panicHook saw %v, want kaboom", recovered)
	}
	if n := srv.panics.Value(); n != 1 {
		t.Fatalf("panics counter %d, want 1", n)
	}
	// The server, its pool and its cache survive: a real decode still works.
	if rec := get(t, srv, "/img/test?x1=8&y1=8"); rec.Code != http.StatusOK {
		t.Fatalf("decode after panic: got %d, want 200", rec.Code)
	}
	if rec := get(t, srv, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz after panic: got %d", rec.Code)
	}
}

func TestServerDeadlineExceeded(t *testing.T) {
	cs := encodeTest(t, testImage())
	store := NewStore()
	img, err := store.Add("test", cs)
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 50 * time.Millisecond
	srv := New(store, Options{Timeout: timeout})
	defer srv.Close()

	key := TileKey{Image: "test", TX: 0, TY: 0, Discard: 0, Layers: img.clampLayers(0)}
	unjam := jamTile(srv, key)

	start := time.Now()
	rec := get(t, srv, "/img/test?x1=8&y1=8")
	elapsed := time.Since(start)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("jammed tile: got %d, want 504 (body %q)", rec.Code, rec.Body.String())
	}
	if elapsed < timeout {
		t.Fatalf("request failed after %v, before the %v deadline", elapsed, timeout)
	}
	// "Promptly": one dispatch unit of slack, sized generously for -race on
	// a loaded machine — the point is it does not hang for the decode that
	// never comes.
	if elapsed > timeout+2*time.Second {
		t.Fatalf("request outlived its deadline by %v", elapsed-timeout)
	}
	if n := srv.timeouts.Value(); n != 1 {
		t.Fatalf("timeouts counter %d, want 1", n)
	}

	unjam()
	if rec := get(t, srv, "/img/test?x1=8&y1=8"); rec.Code != http.StatusOK {
		t.Fatalf("request after unjam: got %d, want 200", rec.Code)
	}
}

// TestServerDeadlineHammer saturates a small-capacity server whose only hot
// tile never finishes decoding: every request must end promptly as either a
// shed 503 (with Retry-After) or a deadline 504, the two counters must
// account for every request, and the server must come back healthy.
func TestServerDeadlineHammer(t *testing.T) {
	cs := encodeTest(t, testImage())
	store := NewStore()
	img, err := store.Add("test", cs)
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 50 * time.Millisecond
	srv := New(store, Options{Timeout: timeout, MaxInFlight: 4})
	defer srv.Close()
	key := TileKey{Image: "test", TX: 0, TY: 0, Discard: 0, Layers: img.clampLayers(0)}
	unjam := jamTile(srv, key)

	ts := httptest.NewServer(srv)
	defer ts.Close()

	const clients = 24
	codes := make([]int, clients)
	retryAfter := make([]string, clients)
	times := make([]time.Duration, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			resp, err := http.Get(ts.URL + "/img/test?x1=8&y1=8")
			times[i] = time.Since(start)
			if err != nil {
				codes[i] = -1
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	for i, code := range codes {
		switch code {
		case http.StatusServiceUnavailable:
			if retryAfter[i] == "" {
				t.Errorf("client %d: 503 without Retry-After", i)
			}
		case http.StatusGatewayTimeout:
		default:
			t.Errorf("client %d: status %d, want 503 or 504", i, code)
		}
		if times[i] > timeout+2*time.Second {
			t.Errorf("client %d outlived the deadline by %v", i, times[i]-timeout)
		}
	}
	shed, timeouts := srv.shed.Value(), srv.timeouts.Value()
	if shed+timeouts != clients {
		t.Fatalf("shed %d + timeouts %d != %d requests", shed, timeouts, clients)
	}
	if timeouts < 1 {
		t.Fatal("no request reached the jammed tile")
	}
	if got := srv.errors.Value(); got != clients {
		t.Fatalf("errors counter %d, want %d", got, clients)
	}

	unjam()
	if rec := get(t, srv, "/img/test?x1=8&y1=8"); rec.Code != http.StatusOK {
		t.Fatalf("request after hammer: got %d, want 200", rec.Code)
	}
	if rec := get(t, srv, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz after hammer: got %d, want 200", rec.Code)
	}
}

// TestServerResilientDamageCounters drives a damaged codestream through the
// resilient tile-decode path: the request is served (degraded, not failed)
// and the damage shows up in the server counters that /stats reports.
func TestServerResilientDamageCounters(t *testing.T) {
	im := raster.Synthetic(96, 96, 11)
	cs, _, err := jp2k.Encode(im, jp2k.Options{
		Kernel: dwt.Irr97, TileW: 48, TileH: 48, LayerBPP: []float64{1.0},
		Resilience: jp2k.ResilienceOptions{SOP: true, EPH: true, SegSymbols: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	img, err := store.Add("dmg", cs)
	if err != nil {
		t.Fatal(err)
	}
	// Rot the stored bytes after indexing — the index still matches the
	// framing (SOP/EPH survive bit flips to MQ payload), the payload does not.
	spans := faultinject.TileBodies(cs)
	if len(spans) != 4 {
		t.Fatalf("%d tile bodies, want 4", len(spans))
	}
	img.src = t2.BytesSource(faultinject.BitFlip(cs, spans[0], 16, 77))

	srv := New(store, Options{Resilient: true})
	defer srv.Close()
	rec := get(t, srv, "/img/dmg")
	if rec.Code != http.StatusOK {
		t.Fatalf("resilient server failed a damaged image: %d %q", rec.Code, rec.Body.String())
	}
	if srv.damagedTiles.Value() < 1 {
		t.Fatal("damaged tile decode moved no damage counters")
	}
	if srv.blocksConcealed.Value() < 1 && srv.packetsLost.Value() < 1 {
		t.Fatal("damage counters show neither concealed blocks nor lost packets")
	}
}
