package t2_test

// Tests for the streaming half of the t2 layer: Source-backed scanning, the
// incremental (lazy) tile index, and the IO bounds that make registration
// cheap. External package: realistic streams come from the jp2k encoder.

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/jp2k"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// countingReaderAt wraps an io.ReaderAt and tallies bytes actually read —
// the instrument the laziness assertions are built on.
type countingReaderAt struct {
	r     io.ReaderAt
	bytes atomic.Int64
	calls atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.bytes.Add(int64(n))
	c.calls.Add(1)
	return n, err
}

// bigTiledStream encodes a stream large enough that lazy vs eager IO is
// unmistakable: tens of tiles, well past the scanner's chunk size.
func bigTiledStream(t testing.TB) []byte {
	t.Helper()
	cs, _, err := jp2k.Encode(raster.Synthetic(512, 512, 29), jp2k.Options{
		Kernel: dwt.Rev53, TileW: 64, TileH: 64, Levels: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestScanReadsHeadersOnly pins the registration IO bound: indexing a stream
// through a counting ReaderAt must read about one scanner chunk for the main
// header plus a fixed few bytes per tile-part — never the tile bodies.
// Forcing one tile afterwards reads about that tile's body and nothing more.
func TestScanReadsHeadersOnly(t *testing.T) {
	cs := bigTiledStream(t)
	cr := &countingReaderAt{r: bytes.NewReader(cs)}
	src := t2.NewSource(cr, int64(len(cs)))
	ix, err := t2.NewIndex(src)
	if err != nil {
		t.Fatal(err)
	}
	ntiles := ix.NumTiles()
	if ntiles != 64 {
		t.Fatalf("%d tiles, want 64", ntiles)
	}
	registration := cr.bytes.Load()
	// One 8 KiB header chunk + SOT/marker reads (14 bytes per tile-part) +
	// slack; the stream itself is far larger.
	budget := int64(8<<10 + 64*ntiles)
	if registration > budget {
		t.Fatalf("registration read %d bytes (budget %d) — tile bodies are being read up front", registration, budget)
	}
	if int64(len(cs)) < 4*budget {
		t.Fatalf("stream too small (%d bytes) for the laziness bound to mean anything", len(cs))
	}

	// Touch one tile: the increment must be about that tile's body, not the
	// rest of the stream.
	ti := ntiles / 2
	if _, err := ix.TileMap(ti, src); err != nil {
		t.Fatal(err)
	}
	delta := cr.bytes.Load() - registration
	body := ix.Spans()[ti].Len
	if delta < body {
		t.Fatalf("tile force read %d bytes, body is %d", delta, body)
	}
	if delta > body+1024 {
		t.Fatalf("forcing one %d-byte tile read %d bytes — more than its own body", body, delta)
	}
	// A second touch of the same tile is free: the lazy cell is built once.
	before := cr.bytes.Load()
	if _, err := ix.TileMap(ti, src); err != nil {
		t.Fatal(err)
	}
	if cr.bytes.Load() != before {
		t.Fatal("re-touching a built tile read the source again")
	}
}

// TestSourceKindsEqual: scanning and indexing must be oblivious to where the
// bytes live — resident slice, bytes.Reader behind a caller's ReaderAt, and a
// real file on disk all produce identical params, spans and packet
// boundaries.
func TestSourceKindsEqual(t *testing.T) {
	cs := bigTiledStream(t)
	path := filepath.Join(t.TempDir(), "s.j2k")
	if err := os.WriteFile(path, cs, 0o644); err != nil {
		t.Fatal(err)
	}
	fileSrc, err := t2.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fileSrc.Close()
	sources := map[string]*t2.Source{
		"bytes":    t2.BytesSource(cs),
		"readerat": t2.NewSource(bytes.NewReader(cs), int64(len(cs))),
		"file":     fileSrc,
	}
	refP, refSpans, err := t2.ScanCodestream(t2.BytesSource(cs))
	if err != nil {
		t.Fatal(err)
	}
	refSrc := t2.BytesSource(cs)
	refIx, err := t2.BuildIndex(refSrc)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range sources {
		p, spans, err := t2.ScanCodestream(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(p, refP) || !reflect.DeepEqual(spans, refSpans) {
			t.Fatalf("%s: scan differs from resident scan", name)
		}
		ix, err := t2.NewIndex(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for ti := 0; ti < ix.NumTiles(); ti++ {
			got, err := ix.TileMap(ti, src)
			if err != nil {
				t.Fatalf("%s tile %d: %v", name, ti, err)
			}
			want, err := refIx.TileMap(ti, refSrc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Packets, want.Packets) {
				t.Fatalf("%s tile %d: packet boundaries differ", name, ti)
			}
		}
	}
}

// TestLazyIndexConcurrent is the -race gate for the lazy tile cells: many
// goroutines forcing overlapping and disjoint tiles of one shared Index must
// produce exactly the eager index's results, with no data races (the test is
// meaningful under `go test -race`, which CI runs).
func TestLazyIndexConcurrent(t *testing.T) {
	cs := bigTiledStream(t)
	eagerSrc := t2.BytesSource(cs)
	eager, err := t2.BuildIndex(eagerSrc)
	if err != nil {
		t.Fatal(err)
	}
	src := t2.NewSource(bytes.NewReader(cs), int64(len(cs)))
	ix, err := t2.NewIndex(src)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks every tile, starting at a different point, so
			// every cell sees both first-build and already-built contention.
			for k := 0; k < ix.NumTiles(); k++ {
				ti := (w*7 + k) % ix.NumTiles()
				got, err := ix.TileMap(ti, src)
				if err != nil {
					errs <- err
					return
				}
				want, err := eager.TileMap(ti, eagerSrc)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got.Packets, want.Packets) {
					errs <- io.ErrUnexpectedEOF // sentinel; details below
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent lazy index: %v", err)
	}
}

// sotOffsets returns the byte offsets of every SOT marker in cs.
func sotOffsets(cs []byte) []int {
	var offs []int
	for i := 0; i+1 < len(cs); i++ {
		if cs[i] == 0xFF && cs[i+1] == 0x90 {
			offs = append(offs, i)
		}
	}
	return offs
}

// FuzzLazyIndex hammers the incremental indexer with hostile tile-part
// chains. Seeds cover the documented attack surface: truncation mid-SOT
// chain and lying Psot fields (zero, overlapping the next tile-part, pointing
// past EOF). The contract: strict scanning errors cleanly, resilient scanning
// salvages one in-bounds span per tile of the grid, and forcing every indexed
// tile never panics or reads outside the stream; and PrefixSize predicts the
// count WritePrefix writes, or both fail.
func FuzzLazyIndex(f *testing.F) {
	cs, _, err := jp2k.Encode(raster.Synthetic(96, 96, 13), jp2k.Options{
		Kernel: dwt.Rev53, TileW: 48, TileH: 48, Levels: 2,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cs)
	sots := sotOffsets(cs)
	if len(sots) < 2 {
		f.Fatalf("seed stream has %d SOTs, want several", len(sots))
	}
	// Truncation mid-SOT-chain: cut inside the second tile-part's header and
	// inside its body.
	f.Add(cs[:sots[1]+6])
	f.Add(cs[:sots[1]+40])
	// Lying Psot values on the second SOT (Psot lives 6 bytes past the
	// marker): zero, small-but-overlapping, and far past EOF.
	for _, psot := range []uint32{0, 13, 1 << 30} {
		mut := append([]byte(nil), cs...)
		binary.BigEndian.PutUint32(mut[sots[1]+6:], psot)
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		src := t2.BytesSource(data)
		// Strict: error or a fully forceable index with in-bounds spans.
		if ix, err := t2.NewIndex(src); err == nil {
			for ti := 0; ti < ix.NumTiles(); ti++ {
				_, _ = ix.TileMap(ti, src)
			}
			for _, l := range []int{1, ix.Params.Layers} {
				size, serr := ix.PrefixSize(l, src)
				n, werr := ix.CopyPrefix(io.Discard, l, src)
				if (serr == nil) != (werr == nil) || serr == nil && size != n {
					t.Fatalf("layers=%d: PrefixSize %d (%v), WritePrefix wrote %d (%v)", l, size, serr, n, werr)
				}
			}
		}
		// Resilient: never panics, and a scan that succeeds gives one span
		// per tile of the grid, each in bounds.
		p, spans, _, err := new(t2.Scanner).Scan(src, true)
		if err != nil {
			return
		}
		if ntx, nty := p.NumTiles(); len(spans) != ntx*nty {
			t.Fatalf("resilient scan gave %d spans for a %dx%d tile grid", len(spans), ntx, nty)
		}
		for _, sp := range spans {
			if sp.Off < 0 || sp.Len < 0 || sp.End() > int64(len(data)) {
				t.Fatalf("resilient scan salvaged out-of-bounds span [%d,%d) of %d bytes",
					sp.Off, sp.End(), len(data))
			}
		}
	})
}
