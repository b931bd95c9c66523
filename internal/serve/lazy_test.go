package serve

// Tests for lazy ingest: registration must never read tile bodies, serving
// must read only what the request's window touches, and LoadDir must behave
// identically to byte-slice registration end to end.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/faultinject"
	"pj2k/internal/jp2k"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// meteredReaderAt counts bytes read so the tests can assert IO bounds.
type meteredReaderAt struct {
	r     io.ReaderAt
	bytes atomic.Int64
}

func (m *meteredReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := m.r.ReadAt(p, off)
	m.bytes.Add(int64(n))
	return n, err
}

// TestAddSourceLazyIngest pins the registration contract: AddSource over a
// counting ReaderAt reads the main header and the tile-part chain — a chunk
// plus a few bytes per tile — never the tile bodies, and a served region
// request then reads only about its window's tiles.
func TestAddSourceLazyIngest(t *testing.T) {
	// The stream must dwarf the scanner's 8 KiB header chunk, or "read the
	// whole thing" and "read the headers" are indistinguishable.
	cs := encodeTest(t, raster.Synthetic(768, 640, 99))
	if len(cs) < 4*(8<<10) {
		t.Fatalf("test stream too small (%d bytes) for IO bounds to discriminate", len(cs))
	}
	mr := &meteredReaderAt{r: bytes.NewReader(cs)}
	store := NewStore()
	img, err := store.AddSource("lazy", t2.NewSource(mr, int64(len(cs))))
	if err != nil {
		t.Fatal(err)
	}
	registration := mr.bytes.Load()
	budget := int64(8<<10 + 64*img.Index.NumTiles())
	if registration > budget {
		t.Fatalf("registration read %d of %d stream bytes (budget %d) — ingest is not lazy",
			registration, len(cs), budget)
	}

	// Serve one tile-sized window: the read increment must stay well under
	// the whole stream (only the window's tile bodies plus scan overhead).
	srv := New(store, Options{CacheBytes: -1})
	defer srv.Close()
	rec := get(t, srv, "/img/lazy?x0=0&y0=0&x1=96&y1=80&format=raw")
	if rec.Code != http.StatusOK {
		t.Fatalf("region request failed: %d %q", rec.Code, rec.Body.String())
	}
	served := mr.bytes.Load() - registration
	if served >= int64(len(cs))/2 {
		t.Fatalf("one-tile request read %d bytes of a %d-byte stream — serving is not windowed",
			served, len(cs))
	}
	if served == 0 {
		t.Fatal("region decode read nothing from the source")
	}
}

// TestTileMissReadsOnlyItsBody: a tile miss decodes from the store's index, so
// once /info has built the packet maps, a cold one-tile window reads the
// source exactly once — that tile's body — instead of re-scanning the main
// header and the whole tile-part chain.
func TestTileMissReadsOnlyItsBody(t *testing.T) {
	// The stream must dwarf the scanner's 8 KiB header chunk, or a re-scan
	// would be served from that one chunk and look like no re-scan at all.
	cs := encodeTest(t, raster.Synthetic(768, 640, 99))
	if len(cs) < 4*(8<<10) {
		t.Fatalf("test stream too small (%d bytes) for a re-scan to show in the read count", len(cs))
	}
	reader := faultinject.NewFlaky(bytes.NewReader(cs), faultinject.FlakyConfig{})
	store := NewStore()
	img, err := store.AddSource("img", t2.NewSource(reader, int64(len(cs))))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{CacheBytes: -1})
	defer srv.Close()
	if rec := get(t, srv, "/img/img/info"); rec.Code != http.StatusOK {
		t.Fatalf("/info: %d %q", rec.Code, rec.Body.String())
	}
	colW, rowH := img.Grid(0)
	before := reader.Calls()
	rec := get(t, srv, fmt.Sprintf("/img/img?x0=%d&y0=%d&x1=%d&y1=%d&format=raw", colW[1], rowH[1], colW[2], rowH[2]))
	if rec.Code != http.StatusOK {
		t.Fatalf("tile request failed: %d %q", rec.Code, rec.Body.String())
	}
	if reads := reader.Calls() - before; reads != 1 {
		t.Fatalf("one cold tile issued %d source reads, want 1 (%d tiles in the stream)", reads, img.Index.NumTiles())
	}
}

// writeTiledStream encodes a w x h 5/3 image in 128x128 tiles to path and
// returns the file size; the raster and the resident codestream are garbage
// once it returns.
func writeTiledStream(t *testing.T, path string, w, h int) int64 {
	t.Helper()
	cs, _, err := jp2k.Encode(raster.Synthetic(w, h, 7), jp2k.Options{
		Kernel: dwt.Rev53, TileW: 128, TileH: 128, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, cs, 0o644); err != nil {
		t.Fatal(err)
	}
	return int64(len(cs))
}

// TestIndexHoldsNoTileBodies: serving /info and a full /stream of a
// file-backed image reads every tile body, but keeps none of them — the index
// holds packet maps, so the heap kept afterwards is a small fraction of the
// file, not a copy of it. Gated off -short like the decoder's memory walk.
func TestIndexHoldsNoTileBodies(t *testing.T) {
	if testing.Short() {
		t.Skip("2048x2048 encode skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "big.j2k")
	size := writeTiledStream(t, path, 2048, 2048)
	src, err := t2.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	if _, err := store.AddSource("big", src); err != nil {
		src.Close()
		t.Fatal(err)
	}
	srv := New(store, Options{})
	defer srv.Close()
	defer store.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, path := range []string{"/img/big/info", "/img/big/stream"} {
		if rec := get(t, srv, path); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %q", path, rec.Code, rec.Body.String())
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap kept %d bytes after /info and /stream of a %d-byte file (%.2fx)", kept, size, float64(kept)/float64(size))
	if kept > size/8 {
		t.Fatalf("serving kept %d bytes of heap for a %d-byte file — the index is holding tile bodies", kept, size)
	}
}

// TestStreamContentLength: /stream's Content-Length is the length of the body
// it sends, for every layer count, on resident and file-backed images alike.
func TestStreamContentLength(t *testing.T) {
	cs := encodeTest(t, testImage())
	path := filepath.Join(t.TempDir(), "file.j2k")
	if err := os.WriteFile(path, cs, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := t2.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	if _, err := store.AddSource("file", src); err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	img, err := store.Add("mem", cs)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, id := range []string{"mem", "file"} {
		for l := 1; l <= img.Params().Layers; l++ {
			resp, err := ts.Client().Get(fmt.Sprintf("%s/img/%s/stream?layers=%d", ts.URL, id, l))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s layers=%d: status %d, read error %v", id, l, resp.StatusCode, err)
			}
			if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
				t.Fatalf("%s layers=%d: Content-Length %q on a %d-byte body", id, l, cl, len(body))
			}
		}
	}
}

// TestStreamReadFailureTruncates: when the source fails after /info has built
// the packet maps, /stream has already promised a Content-Length when the
// first body read fails. The client must see a truncated body
// (io.ErrUnexpectedEOF), never a complete-looking 200, and the failure is
// counted in /stats errors.
func TestStreamReadFailureTruncates(t *testing.T) {
	srv, fl := flakyImageServer(t, Options{}, faultinject.FlakyConfig{FailNth: 1})
	if rec := get(t, srv, "/img/q/info"); rec.Code != http.StatusOK {
		t.Fatalf("/info: %d %q", rec.Code, rec.Body.String())
	}
	fl.Break()
	before := serverStats(t, srv).Errors
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/img/q/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("status %d, %d-byte body, read error %v; want io.ErrUnexpectedEOF", resp.StatusCode, len(body), err)
	}
	if got := serverStats(t, srv).Errors; got != before+1 {
		t.Fatalf("/stats errors %d after a failed /stream, want %d", got, before+1)
	}
}

// TestLoadDirLazyServing: a directory ingested via LoadDir (file-backed lazy
// sources) serves byte-identical responses to the same stream registered as
// resident bytes, and Close releases the files.
func TestLoadDirLazyServing(t *testing.T) {
	cs := encodeTest(t, testImage())
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "scene.j2k"), cs, 0o644); err != nil {
		t.Fatal(err)
	}
	// A non-codestream file must be ignored by extension, not rejected.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	lazyStore := NewStore()
	n, err := lazyStore.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || lazyStore.Len() != 1 {
		t.Fatalf("loaded %d images (store %d), want 1", n, lazyStore.Len())
	}
	eagerStore := NewStore()
	if _, err := eagerStore.Add("scene", cs); err != nil {
		t.Fatal(err)
	}

	lazySrv := New(lazyStore, Options{})
	defer lazySrv.Close()
	eagerSrv := New(eagerStore, Options{})
	defer eagerSrv.Close()
	for _, path := range []string{
		"/img/scene?x0=10&y0=20&x1=200&y1=150&format=raw",
		"/img/scene?x0=0&y0=0&x1=115&y1=95&reduce=1&format=raw",
		"/img/scene/info",
		"/img/scene/stream?layers=1",
	} {
		lr := get(t, lazySrv, path)
		er := get(t, eagerSrv, path)
		if lr.Code != http.StatusOK || er.Code != http.StatusOK {
			t.Fatalf("%s: lazy %d, eager %d", path, lr.Code, er.Code)
		}
		if !bytes.Equal(lr.Body.Bytes(), er.Body.Bytes()) {
			t.Fatalf("%s: lazy and eager responses differ (%d vs %d bytes)",
				path, lr.Body.Len(), er.Body.Len())
		}
	}

	if err := lazyStore.Close(); err != nil {
		t.Fatal(err)
	}
	if lazyStore.Len() != 0 {
		t.Fatal("Close left images registered")
	}
}

// TestStoreRejectsDuplicateID: registering an id twice is an error, not a
// silent replacement — the first image stays served, the rejected source stays
// the caller's, and Store.Close closes every file the store took.
func TestStoreRejectsDuplicateID(t *testing.T) {
	open := func(name string, im *raster.Image) *t2.Source {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, encodeTest(t, im), 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := t2.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	first := open("a.j2k", raster.Synthetic(64, 48, 1))
	second := open("a.j2k", raster.Synthetic(96, 80, 2))
	defer second.Close()

	store := NewStore()
	if _, err := store.AddSource("a", first); err != nil {
		t.Fatal(err)
	}
	if _, err := store.AddSource("a", second); err == nil {
		t.Fatal("duplicate AddSource accepted")
	}
	if _, err := store.Add("a", encodeTest(t, raster.Synthetic(32, 32, 3))); err == nil {
		t.Fatal("duplicate Add accepted")
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d images, want 1", store.Len())
	}
	img, ok := store.Get("a")
	if !ok || img.src != first || img.Params().Width != 64 {
		t.Fatal("the first registration is no longer the image served")
	}

	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := first.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("Store.Close left a registered file open")
	}
	if _, err := second.ReadAt(make([]byte, 1), 0); err != nil {
		t.Fatalf("Store.Close closed a source it never took: %v", err)
	}
}
