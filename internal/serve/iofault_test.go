package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pj2k/internal/faultinject"
	"pj2k/internal/t2"
)

// --- Store robustness: partial loads, aggregated close errors.

func TestLoadDirSkipAndCollect(t *testing.T) {
	cs := encodeTest(t, testImage())
	dir := t.TempDir()
	for _, name := range []string{"good1.j2k", "good2.j2k"} {
		if err := os.WriteFile(filepath.Join(dir, name), cs, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.j2k"), []byte("not a codestream"), 0o644); err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	n, err := store.LoadDir(dir)
	if n != 2 {
		t.Fatalf("LoadDir loaded %d images; want the 2 good ones", n)
	}
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("LoadDir error %v does not report the corrupt file", err)
	}
	if store.Len() != 2 {
		t.Fatalf("store holds %d images; want 2", store.Len())
	}
	for _, id := range []string{"good1", "good2"} {
		if _, ok := store.Get(id); !ok {
			t.Fatalf("image %q missing after partial load", id)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatalf("Close after partial load: %v", err)
	}
}

// --- Quarantine lifecycle: consecutive IO failures take an image out of
// service (503 + Retry-After), the background probe brings it back once the
// source heals, and every transition is visible in /stats and /metrics.

// flakyImageServer registers one image backed by a FlakyReaderAt (registered
// healthy so indexing succeeds) and returns the server plus the fault handle.
func flakyImageServer(t *testing.T, opts Options, cfg faultinject.FlakyConfig) (*Server, *faultinject.FlakyReaderAt) {
	t.Helper()
	cs := encodeTest(t, testImage())
	fl := faultinject.NewFlaky(bytes.NewReader(cs), cfg)
	fl.Heal()
	store := NewStore()
	if _, err := store.AddSource("q", t2.NewSource(fl, int64(len(cs)))); err != nil {
		t.Fatal(err)
	}
	srv := New(store, opts)
	t.Cleanup(srv.Close)
	return srv, fl
}

// oneTileWindow covers exactly tile (0, 0) of the 230x190 / 96x80 test
// geometry, so each request decodes one tile and records one IO verdict.
const oneTileWindow = "/img/q?x0=0&y0=0&x1=96&y1=80&format=raw"

func serverStats(t *testing.T, srv *Server) statsResponse {
	t.Helper()
	rec := get(t, srv, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats: %d", rec.Code)
	}
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestQuarantineLifecycle(t *testing.T) {
	srv, fl := flakyImageServer(t, Options{
		CacheBytes:      -1, // every request decodes, so every request reads
		IORetries:       1,
		QuarantineAfter: 2,
		ProbeInterval:   20 * time.Millisecond,
	}, faultinject.FlakyConfig{FailNth: 1})

	if rec := get(t, srv, oneTileWindow); rec.Code != http.StatusOK {
		t.Fatalf("healthy request: %d, %s", rec.Code, rec.Body)
	}
	fl.Break()
	// Two consecutive IO-failed decodes cross the threshold; both requests
	// themselves fail with 500 (the decode really did fail).
	for i := 0; i < 2; i++ {
		if rec := get(t, srv, oneTileWindow); rec.Code != http.StatusInternalServerError {
			t.Fatalf("broken request %d: %d, %s", i, rec.Code, rec.Body)
		}
	}
	// The image is now quarantined: requests are rejected up front with 503 +
	// Retry-After, without burning a decode.
	rec := get(t, srv, oneTileWindow)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("quarantined request: %d, %s", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("quarantined 503 carries no Retry-After")
	}
	// Info and stream endpoints reject too — they read the same source.
	if rec := get(t, srv, "/img/q/info"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("quarantined /info: %d", rec.Code)
	}
	st := serverStats(t, srv)
	if st.Quarantine.Total != 1 || st.Quarantine.Active != 1 || st.Quarantine.RejectedRequests < 1 {
		t.Fatalf("stats quarantine = %+v; want total 1, active 1, rejections", st.Quarantine)
	}
	if st.IO.ReadFailures < 2 || st.IO.ReadAttempts < 2 {
		t.Fatalf("stats io = %+v; the failed reads left no trace", st.IO)
	}

	// The source heals; the background probe notices and restores service
	// without any operator action.
	fl.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec := get(t, srv, oneTileWindow)
		if rec.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("image never recovered from quarantine; last status %d", rec.Code)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st = serverStats(t, srv)
	if st.Quarantine.Active != 0 || st.Quarantine.Recoveries != 1 || st.Quarantine.Total != 1 {
		t.Fatalf("stats quarantine after recovery = %+v; want active 0, recoveries 1", st.Quarantine)
	}
	body := get(t, srv, "/metrics").Body.String()
	for _, want := range []string{
		"pj2k_quarantines_total 1",
		"pj2k_quarantine_recoveries_total 1",
		"pj2k_quarantined_images 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestQuarantineOnConcealedDamage: in resilient mode an unreadable tile body
// does not fail the request (the tile is concealed, 200), but it still counts
// as an IO failure against the image — repeated concealment quarantines it.
func TestQuarantineOnConcealedDamage(t *testing.T) {
	cs := encodeTest(t, testImage())
	body := faultinject.TileBodies(cs)
	if len(body) == 0 {
		t.Fatal("no tile bodies")
	}
	srv, fl := flakyImageServer(t, Options{
		CacheBytes:      -1,
		Resilient:       true,
		IORetries:       1,
		QuarantineAfter: 2,
		ProbeInterval:   time.Hour, // keep the probe out of this test
	}, faultinject.FlakyConfig{FailSpan: body[0]})
	fl.Break()
	for i := 0; i < 2; i++ {
		rec := get(t, srv, oneTileWindow)
		if rec.Code != http.StatusOK {
			t.Fatalf("degraded request %d: %d, %s", i, rec.Code, rec.Body)
		}
	}
	if rec := get(t, srv, oneTileWindow); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request after repeated concealment: %d; want quarantine", rec.Code)
	}
	st := serverStats(t, srv)
	if st.Damage.IOUnreadableTiles < 2 {
		t.Fatalf("stats damage = %+v; concealed IO tiles not counted", st.Damage)
	}
	if st.Quarantine.Total != 1 {
		t.Fatalf("stats quarantine = %+v; concealment did not quarantine", st.Quarantine)
	}
	if m := get(t, srv, "/metrics").Body.String(); !strings.Contains(m, "pj2k_io_unreadable_tiles_total 2") {
		t.Error("/metrics missing pj2k_io_unreadable_tiles_total 2")
	}
}

// TestQuarantineDisabled: a negative QuarantineAfter turns the health
// machinery off — failures keep failing individually, nothing is rejected.
func TestQuarantineDisabled(t *testing.T) {
	srv, fl := flakyImageServer(t, Options{
		CacheBytes:      -1,
		IORetries:       1,
		QuarantineAfter: -1,
	}, faultinject.FlakyConfig{FailNth: 1})
	fl.Break()
	for i := 0; i < 5; i++ {
		if rec := get(t, srv, oneTileWindow); rec.Code != http.StatusInternalServerError {
			t.Fatalf("request %d: %d; want plain 500s with quarantine disabled", i, rec.Code)
		}
	}
	if st := serverStats(t, srv); st.Quarantine.Total != 0 {
		t.Fatalf("stats quarantine = %+v; want none", st.Quarantine)
	}
}

// TestRequestRetryBudget: one request's retries are capped by IORetryBudget
// across all of its reads, so a degraded source cannot multiply request
// latency by retries x tiles.
func TestRequestRetryBudget(t *testing.T) {
	srv, fl := flakyImageServer(t, Options{
		CacheBytes:    -1,
		IORetries:     8,
		IORetryBudget: 2,
	}, faultinject.FlakyConfig{FailNth: 1, Transient: true})
	fl.Break()
	if rec := get(t, srv, oneTileWindow); rec.Code != http.StatusInternalServerError {
		t.Fatalf("request over exhausted source: %d", rec.Code)
	}
	if st := serverStats(t, srv); st.IO.ReadRetries != 2 {
		t.Fatalf("stats io = %+v; want the retry budget (2) consumed exactly", st.IO)
	}
}

// --- /info and /stream read through the request's source: a transient
// fault there is retried and a persistent one quarantines the image, as on a
// tile decode.

// indexEndpoints are the endpoints that read through the packet index.
var indexEndpoints = []struct{ name, path string }{
	{"info", "/img/q/info"},
	{"stream", "/img/q/stream?layers=1"},
}

func TestInfoStreamTransientFault(t *testing.T) {
	want := NewStore()
	if _, err := want.Add("q", encodeTest(t, testImage())); err != nil {
		t.Fatal(err)
	}
	healthy := New(want, Options{})
	defer healthy.Close()
	for _, e := range indexEndpoints {
		t.Run(e.name, func(t *testing.T) {
			// One transient failure on the first read after registration,
			// then the source heals: the retry absorbs it.
			srv, fl := flakyImageServer(t, Options{}, faultinject.FlakyConfig{FailNth: 1, Recover: 1, Transient: true})
			fl.Break()
			rec := get(t, srv, e.path)
			if rec.Code != http.StatusOK {
				t.Fatalf("over a transient fault: %d, %s", rec.Code, rec.Body)
			}
			if fl.Failures() == 0 {
				t.Fatal("no fault was injected")
			}
			if ref := get(t, healthy, e.path); !bytes.Equal(rec.Body.Bytes(), ref.Body.Bytes()) {
				t.Fatal("body differs from a healthy source's")
			}
			if st := serverStats(t, srv); st.IO.ReadRetries == 0 {
				t.Fatalf("stats io = %+v; the failed read was not retried through the request's source", st.IO)
			}
		})
	}
}

func TestInfoStreamQuarantine(t *testing.T) {
	for _, e := range indexEndpoints {
		t.Run(e.name, func(t *testing.T) {
			srv, fl := flakyImageServer(t, Options{
				IORetries:       1,
				QuarantineAfter: 2,
				ProbeInterval:   time.Hour, // keep the probe out of this test
			}, faultinject.FlakyConfig{FailNth: 1})
			fl.Break()
			for i := 0; i < 2; i++ {
				if rec := get(t, srv, e.path); rec.Code != http.StatusInternalServerError {
					t.Fatalf("over a dead source, request %d: %d, %s", i, rec.Code, rec.Body)
				}
			}
			rec := get(t, srv, oneTileWindow)
			if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
				t.Fatalf("region request after 2 failed requests: %d, Retry-After %q; want 503 with Retry-After",
					rec.Code, rec.Header().Get("Retry-After"))
			}
			if st := serverStats(t, srv); st.Quarantine.Total != 1 || st.IO.ReadFailures < 2 {
				t.Fatalf("stats quarantine = %+v, io = %+v; want one quarantine after 2 failed reads",
					st.Quarantine, st.IO)
			}
		})
	}
}

// TestRegionMapReadsCounted: a region request whose packet map is not built
// yet reads it through its own source, so every read the image's reader sees
// is an io.read_attempts; the same request again (tile cached, map built)
// reads nothing.
func TestRegionMapReadsCounted(t *testing.T) {
	srv, fl := flakyImageServer(t, Options{}, faultinject.FlakyConfig{})
	registered := fl.Calls()
	for i := 0; i < 2; i++ {
		if rec := get(t, srv, oneTileWindow); rec.Code != http.StatusOK || rec.Header().Get("X-Pj2k-Packet-Bytes") == "" {
			t.Fatalf("request %d: %d, X-Pj2k-Packet-Bytes %q", i, rec.Code, rec.Header().Get("X-Pj2k-Packet-Bytes"))
		}
		reads, attempts := fl.Calls()-registered, serverStats(t, srv).IO.ReadAttempts
		if reads != 2 || attempts != reads {
			t.Fatalf("after request %d: the reader saw %d reads, io.read_attempts %d; want 2 each (the tile body and its packet map)",
				i, reads, attempts)
		}
	}
}
