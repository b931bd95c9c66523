package jp2k

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pj2k/internal/dwt"
	"pj2k/internal/faultinject"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// --- IO-fault chaos matrix: flaky sources x strict/resilient x worker
// counts. Transient faults must be invisible (bit-identical output under
// retries); permanent faults must stay local (resilient conceals only the
// affected tile, strict names it in a typed error); nothing ever panics.

// chaosStream encodes a synthetic image; tile == 0 keeps the single-tile
// geometry.
func chaosStream(t testing.TB, w, h, tile int) []byte {
	t.Helper()
	opts := Options{Kernel: dwt.Rev53}
	if tile > 0 {
		opts.TileW, opts.TileH = tile, tile
	}
	cs, _, err := Encode(raster.Synthetic(w, h, 17), opts)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// flakySource wraps cs behind a FlakyReaderAt and the retry layer — the full
// degraded-IO read path a decode exercises.
func flakySource(cs []byte, cfg faultinject.FlakyConfig, pol t2.RetryPolicy) (*t2.Source, *faultinject.FlakyReaderAt) {
	fl := faultinject.NewFlaky(bytes.NewReader(cs), cfg)
	return t2.ResilientSource(t2.NewSource(fl, int64(len(cs))), pol), fl
}

// lastBody returns the last tile body span of cs (the fault target: its read
// is issued for exactly that range, so span containment matches it and
// nothing else).
func lastBody(t testing.TB, cs []byte) faultinject.Span {
	t.Helper()
	spans := faultinject.TileBodies(cs)
	if len(spans) == 0 {
		t.Fatal("no tile bodies found")
	}
	return spans[len(spans)-1]
}

var chaosWorkers = []int{1, 2, 4, 8}

// TestChaosTransientBitIdentity: every transient fault shape — plain failure,
// short read, stall past the deadline — healing within the retry budget must
// yield output bit-identical to a clean decode, at every worker count, with
// an empty damage report in resilient mode.
func TestChaosTransientBitIdentity(t *testing.T) {
	streams := []struct {
		name string
		w, h int
		tile int
	}{
		{"single-64", 64, 64, 0},
		{"tiled-96", 96, 96, 48},
	}
	for _, s := range streams {
		cs := chaosStream(t, s.w, s.h, s.tile)
		dec := NewDecoder()
		ref, err := dec.DecodePlanarSource(t2.BytesSource(cs), DecodeOptions{})
		dec.Close()
		if err != nil {
			t.Fatal(err)
		}
		body := lastBody(t, cs)
		modes := []struct {
			name string
			cfg  faultinject.FlakyConfig
			pol  t2.RetryPolicy
		}{
			// The very first read (header scan) fails three times, then the
			// source heals: retries absorb it before any tile work starts.
			{"scan-fail-recover",
				faultinject.FlakyConfig{FailNth: 1, Transient: true, Recover: 3},
				t2.RetryPolicy{Retries: 5}},
			// One tile's body read fails twice, then heals: the retry fires
			// inside the parallel tile walk.
			{"tile-fail-recover",
				faultinject.FlakyConfig{FailSpan: body, Transient: true, Recover: 2},
				t2.RetryPolicy{Retries: 4}},
			// The body read violates the ReaderAt contract (half the bytes,
			// nil error) twice; the wrapper must detect and retry it.
			{"tile-short-read",
				faultinject.FlakyConfig{FailSpan: body, ShortRead: true, Recover: 2},
				t2.RetryPolicy{Retries: 4}},
			// The body read stalls past the per-read deadline twice; the
			// abandoned attempts retry and the third responds in time.
			{"tile-stall",
				faultinject.FlakyConfig{FailSpan: body, Stall: 30 * time.Millisecond, Recover: 2},
				t2.RetryPolicy{Retries: 4, ReadTimeout: 5 * time.Millisecond}},
		}
		for _, m := range modes {
			for _, workers := range chaosWorkers {
				t.Run(fmt.Sprintf("%s/%s/w%d", s.name, m.name, workers), func(t *testing.T) {
					src, fl := flakySource(cs, m.cfg, m.pol)
					d := NewDecoder()
					defer d.Close()
					got, err := d.DecodePlanarSource(src, DecodeOptions{Workers: workers})
					if err != nil {
						t.Fatalf("decode under transient faults: %v", err)
					}
					planarsEqual(t, got, ref, "transient-fault decode")
					if fl.Failures() == 0 {
						t.Fatal("the fault never fired; the matrix tested nothing")
					}
					// Resilient mode over the same (re-armed) fault shape:
					// identical pixels and a clean damage report.
					src2, _ := flakySource(cs, m.cfg, m.pol)
					d2 := NewDecoder()
					defer d2.Close()
					got2, err := d2.DecodePlanarSource(src2, DecodeOptions{Resilient: true, Workers: workers})
					if err != nil {
						t.Fatalf("resilient decode under transient faults: %v", err)
					}
					planarsEqual(t, got2, ref, "transient-fault resilient decode")
					if d2.Damage().Damaged() {
						t.Fatalf("absorbed transient faults left a damage report: %s", d2.Damage())
					}
				})
			}
		}
	}
}

// TestChaosPermanentStrictTypedError: a permanently unreadable tile body must
// fail a strict decode with a tileIOError naming the tile and the exact span,
// wrapping the retry layer's permanent ReadError.
func TestChaosPermanentStrictTypedError(t *testing.T) {
	cs := chaosStream(t, 96, 96, 48) // 2x2 tile grid
	spans := faultinject.TileBodies(cs)
	if len(spans) != 4 {
		t.Fatalf("%d tile bodies; want 4", len(spans))
	}
	const target = 3
	for _, workers := range chaosWorkers {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			src, _ := flakySource(cs, faultinject.FlakyConfig{FailSpan: spans[target]}, t2.RetryPolicy{Retries: 2})
			d := NewDecoder()
			defer d.Close()
			_, err := d.DecodePlanarSource(src, DecodeOptions{Workers: workers})
			if err == nil {
				t.Fatal("strict decode of an unreadable tile body succeeded")
			}
			var tie *tileIOError
			if !errors.As(err, &tie) {
				t.Fatalf("error %v (%T) is not a *tileIOError", err, err)
			}
			if tie.Tile != target || tie.Off != int64(spans[target].Off) || tie.Len != int64(spans[target].Len) {
				t.Fatalf("tileIOError = tile %d span [%d, %d); want tile %d span [%d, %d)",
					tie.Tile, tie.Off, tie.Off+tie.Len, target, spans[target].Off, spans[target].End())
			}
			var re *t2.ReadError
			if !errors.As(err, &re) || re.Transient {
				t.Fatalf("tileIOError does not wrap a permanent *t2.ReadError: %v", err)
			}
			if !t2.IsIOError(err) {
				t.Fatal("IsIOError = false for an unreadable tile body")
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("tile %d", target)) {
				t.Fatalf("error text %q does not name the tile", err)
			}
		})
	}
	// A window that avoids the broken tile decodes strictly: only the tiles a
	// region touches are ever read.
	win := Rect{X0: 0, Y0: 0, X1: 48, Y1: 48}
	dref := NewDecoder()
	defer dref.Close()
	ref, err := dref.DecodeRegionPlanarSource(t2.BytesSource(cs), win, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := flakySource(cs, faultinject.FlakyConfig{FailSpan: spans[target]}, t2.RetryPolicy{Retries: 2})
	d := NewDecoder()
	defer d.Close()
	got, err := d.DecodeRegionPlanarSource(src, win, DecodeOptions{})
	if err != nil {
		t.Fatalf("window avoiding the broken tile failed: %v", err)
	}
	planarsEqual(t, got, ref, "window beside unreadable tile")
}

// TestChaosPermanentResilientConceals: resilient decode of the same permanent
// fault must succeed, flag exactly the affected tile as IO-unreadable, and
// leave every pixel outside that tile bit-identical to a clean decode.
func TestChaosPermanentResilientConceals(t *testing.T) {
	cs := chaosStream(t, 96, 96, 48)
	spans := faultinject.TileBodies(cs)
	const target = 3 // tile (1,1): pixels [48,96) x [48,96)
	dref := NewDecoder()
	ref, err := dref.DecodePlanarSource(t2.BytesSource(cs), DecodeOptions{})
	dref.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range chaosWorkers {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			src, _ := flakySource(cs, faultinject.FlakyConfig{FailSpan: spans[target]}, t2.RetryPolicy{Retries: 1})
			d := NewDecoder()
			defer d.Close()
			got, err := d.DecodePlanarSource(src, DecodeOptions{Resilient: true, Workers: workers})
			if err != nil {
				t.Fatalf("resilient decode: %v", err)
			}
			if got.Width() != ref.Width() || got.Height() != ref.Height() {
				t.Fatalf("dims %dx%d; want %dx%d", got.Width(), got.Height(), ref.Width(), ref.Height())
			}
			dmg := d.Damage()
			if tot := dmg.Totals(); tot.IOUnreadable != 1 {
				t.Fatalf("IOUnreadable total = %d; want exactly the one broken tile (%s)", tot.IOUnreadable, dmg)
			}
			for _, td := range dmg.Tiles {
				if td.IOUnreadable > 0 && td.Tile != target {
					t.Fatalf("tile %d flagged IO-unreadable; only tile %d is broken", td.Tile, target)
				}
			}
			// Damage locality: everything outside the broken tile's pixel
			// rect is bit-identical to the clean decode.
			for c := range ref.Comps {
				rp, gp := ref.Comps[c], got.Comps[c]
				for y := 0; y < rp.Height; y++ {
					for x := 0; x < rp.Width; x++ {
						if x >= 48 && y >= 48 {
							continue // inside the concealed tile
						}
						if rp.Pix[y*rp.Stride+x] != gp.Pix[y*gp.Stride+x] {
							t.Fatalf("pixel (%d, %d) comp %d differs outside the broken tile", x, y, c)
						}
					}
				}
			}
		})
	}
}

// TestChaosPermanentStallBounded: a source that stalls forever on one span
// must fail a strict decode in bounded time under a per-read deadline — the
// typed error is transient (a deadline expiry), but the decode does not hang.
func TestChaosPermanentStallBounded(t *testing.T) {
	cs := chaosStream(t, 64, 64, 0)
	body := lastBody(t, cs)
	src, _ := flakySource(cs,
		faultinject.FlakyConfig{FailSpan: body, Stall: 300 * time.Millisecond},
		t2.RetryPolicy{Retries: 1, ReadTimeout: 10 * time.Millisecond})
	d := NewDecoder()
	defer d.Close()
	start := time.Now()
	_, err := d.DecodePlanarSource(src, DecodeOptions{})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("decode over a stalled span succeeded")
	}
	if !t2.IsIOError(err) {
		t.Fatalf("stalled decode error %v is not an IO error", err)
	}
	var re *t2.ReadError
	if !errors.As(err, &re) || !re.Transient {
		t.Fatalf("deadline expiry %v not classified transient", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("decode took %v; the deadline did not bound the stall", elapsed)
	}
}

// FuzzDecodeFlakySource drives resilient and strict decodes of a valid
// stream through arbitrary fault shapes: any (selector, fault kind, recovery)
// combination may fail the decode, but must never panic and never return a
// nil image with a nil error.
func FuzzDecodeFlakySource(f *testing.F) {
	cs, _, err := Encode(raster.Synthetic(48, 48, 9), Options{Kernel: dwt.Rev53, TileW: 24, TileH: 24})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint32(0), uint32(0), uint8(0), uint8(0))
	f.Add(uint32(1), uint32(0), uint8(1), uint8(2))     // fail-nth, permanent
	f.Add(uint32(100), uint32(500), uint8(2), uint8(1)) // span, transient
	f.Add(uint32(200), uint32(64), uint8(6), uint8(3))  // span, transient short-read
	f.Add(uint32(3), uint32(0), uint8(5), uint8(0))     // fail-nth short-read, never heals
	bodies := faultinject.TileBodies(cs)
	for _, b := range bodies {
		f.Add(uint32(b.Off), uint32(b.Len), uint8(2), uint8(0))
	}
	f.Fuzz(func(t *testing.T, off, ln uint32, mode, rec uint8) {
		cfg := faultinject.FlakyConfig{
			Transient: mode&2 != 0,
			ShortRead: mode&4 != 0,
			Recover:   int(rec % 8),
		}
		if mode&1 != 0 {
			cfg.FailNth = int(off%64) + 1
		} else {
			cfg.FailSpan = faultinject.Span{Off: int(off) % len(cs), Len: int(ln) % (len(cs) + 1)}
		}
		src, _ := flakySource(cs, cfg, t2.RetryPolicy{Retries: 2})
		d := NewDecoder()
		defer d.Close()
		img, err := d.DecodePlanarSource(src, DecodeOptions{Resilient: true})
		if err == nil && img == nil {
			t.Fatal("resilient decode returned nil image and nil error")
		}
		src2, _ := flakySource(cs, cfg, t2.RetryPolicy{Retries: 2})
		d.DecodePlanarSource(src2, DecodeOptions{})
	})
}
