package serve

// Tests for lazy ingest: registration must never read tile bodies, serving
// must read only what the request's window touches, and LoadDir must behave
// identically to byte-slice registration end to end.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"pj2k/internal/faultinject"
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
	if !ok || img.Source() != first || img.Params().Width != 64 {
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
