package t2_test

// External test package: building realistic codestreams for the Index tests
// requires the full jp2k encoder, which itself imports t2.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/jp2k"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

func encodeTestStream(t *testing.T, o jp2k.Options) []byte {
	t.Helper()
	im := raster.Synthetic(230, 190, 17)
	cs, _, err := jp2k.Encode(im, o)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func indexCases() []jp2k.Options {
	return []jp2k.Options{
		{Kernel: dwt.Rev53, Levels: 3},
		{Kernel: dwt.Rev53, TileW: 64, TileH: 96, CBW: 32, CBH: 16, Levels: 3},
		{Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 0.5, 1.0}, TileW: 100, TileH: 90},
	}
}

// TestIndexSpansPartitionTileBodies asserts the fundamental index invariant:
// per tile, the located packets are contiguous in LRCP order and exactly
// partition the tile-part body — no gap, no overlap, no trailing bytes.
func TestIndexSpansPartitionTileBodies(t *testing.T) {
	for ci, o := range indexCases() {
		cs := encodeTestStream(t, o)
		ix, err := t2.BuildIndex(cs)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		p := ix.Params
		ntx, nty := p.NumTiles()
		if ix.NumTiles() != ntx*nty {
			t.Fatalf("case %d: %d tiles indexed, grid %dx%d", ci, ix.NumTiles(), ntx, nty)
		}
		nc := p.Components()
		for ti := 0; ti < ix.NumTiles(); ti++ {
			tile, err := ix.Tile(ti)
			if err != nil {
				t.Fatalf("case %d tile %d: %v", ci, ti, err)
			}
			if len(tile.Packets) != nc {
				t.Fatalf("case %d tile %d: %d components indexed, want %d", ci, ti, len(tile.Packets), nc)
			}
			for cc, comp := range tile.Packets {
				if len(comp) != p.Layers {
					t.Fatalf("case %d tile %d comp %d: %d layers indexed, want %d", ci, ti, cc, len(comp), p.Layers)
				}
				for li, spans := range comp {
					if len(spans) != p.Levels+1 {
						t.Fatalf("case %d tile %d comp %d layer %d: %d resolutions, want %d",
							ci, ti, cc, li, len(spans), p.Levels+1)
					}
				}
			}
			// Walk the body in LRCP order (layer, resolution, component):
			// packets must be contiguous and exactly partition the body.
			pos := 0
			for li := 0; li < p.Layers; li++ {
				for r := 0; r <= p.Levels; r++ {
					for cc := 0; cc < nc; cc++ {
						s := tile.Packets[cc][li][r]
						if s.Off != pos {
							t.Fatalf("case %d tile %d layer %d res %d comp %d: off %d, want %d",
								ci, ti, li, r, cc, s.Off, pos)
						}
						if s.Len < 0 {
							t.Fatalf("case %d tile %d layer %d res %d comp %d: negative length", ci, ti, li, r, cc)
						}
						pos = s.End()
					}
				}
			}
			if body := ix.Spans()[ti].Len; int64(pos) != body {
				t.Fatalf("case %d tile %d: packets cover %d of %d body bytes", ci, ti, pos, body)
			}
		}
	}
}

// bodyBytes sums the tile-part body lengths of an indexed stream.
func bodyBytes(ix *t2.Index) int {
	n := 0
	for _, sp := range ix.Spans() {
		n += int(sp.Len)
	}
	return n
}

// prefixBytes materializes WritePrefix's n-layer re-emission.
func prefixBytes(t *testing.T, ix *t2.Index, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WritePrefix(&buf, n); err != nil {
		t.Fatalf("layers=%d: %v", n, err)
	}
	return buf.Bytes()
}

// TestIndexWritePrefix asserts the layer-truncation primitive: the
// re-emitted stream with n layers must decode bit-identically to decoding
// the original with MaxLayers n — the embedded-stream property, now
// exercised end to end through the index.
func TestIndexWritePrefix(t *testing.T) {
	cs := encodeTestStream(t, jp2k.Options{
		Kernel: dwt.Irr97, LayerBPP: []float64{0.125, 0.5, 1.0}, TileW: 100, TileH: 90,
	})
	ix, err := t2.BuildIndex(cs)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= ix.Params.Layers; n++ {
		pre := prefixBytes(t, ix, n)
		if n < ix.Params.Layers && len(pre) >= len(cs) {
			t.Fatalf("layers=%d: prefix (%d bytes) not smaller than original (%d)", n, len(pre), len(cs))
		}
		got, err := jp2k.Decode(pre, jp2k.DecodeOptions{})
		if err != nil {
			t.Fatalf("layers=%d: decoding prefix: %v", n, err)
		}
		want, err := jp2k.Decode(cs, jp2k.DecodeOptions{MaxLayers: n})
		if err != nil {
			t.Fatalf("layers=%d: decoding original: %v", n, err)
		}
		if !raster.Equal(got, want) {
			t.Fatalf("layers=%d: truncated stream decodes differently from MaxLayers", n)
		}
	}
}

// prefixDigests pins the SHA-256 of WritePrefix's output for every layer
// count of every indexCases stream (case, then layers 1..Layers).
var prefixDigests = [][]string{
	{"50a709091273d634540ea530348d95d838393cab7469b13c01b16b1bbc38e922"},
	{"97ce7852c55d6bc29d9df819f86c6f5611009e817d15d9c75b8afb9a4db806d7"},
	{
		"c0d60255acbece0723035362d282b807214d2eebe714ca83ec0ae0cd1fd75625",
		"d22fb020ba5df4bad4ef668f73c433d63fbd2b9c0cd9726209e5a3383d7e97d4",
		"7b973e8c47d1f177d89745320b1c0a0e448f290cd2519f81e3e435f0a4225aa7",
	},
}

// bothSources returns cs as a resident source and as a file source (closed
// when the test ends).
func bothSources(t *testing.T, cs []byte) map[string]*t2.Source {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.j2k")
	if err := os.WriteFile(path, cs, 0o644); err != nil {
		t.Fatal(err)
	}
	fileSrc, err := t2.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fileSrc.Close() })
	return map[string]*t2.Source{"bytes": t2.BytesSource(cs), "file": fileSrc}
}

// TestWritePrefixDigests: the layer-prefix re-emission is the same bytes
// whether the index reads a resident slice or a file, and those bytes do not
// move from one change to the next.
func TestWritePrefixDigests(t *testing.T) {
	for ci, o := range indexCases() {
		for name, src := range bothSources(t, encodeTestStream(t, o)) {
			ix, err := t2.NewIndex(src)
			if err != nil {
				t.Fatalf("case %d %s: %v", ci, name, err)
			}
			if got, want := ix.Params.Layers, len(prefixDigests[ci]); got != want {
				t.Fatalf("case %d: %d layers, %d digests pinned", ci, got, want)
			}
			for l := 1; l <= ix.Params.Layers; l++ {
				sum := sha256.Sum256(prefixBytes(t, ix, l))
				if got := hex.EncodeToString(sum[:]); got != prefixDigests[ci][l-1] {
					t.Errorf("case %d %s layers=%d: prefix digest %s, pinned %s", ci, name, l, got, prefixDigests[ci][l-1])
				}
			}
		}
	}
}

// TestPrefixSize: PrefixSize predicts exactly the bytes WritePrefix writes,
// for every layer count (and the clamped ones outside the range), over
// resident and file sources.
func TestPrefixSize(t *testing.T) {
	for ci, o := range indexCases() {
		for name, src := range bothSources(t, encodeTestStream(t, o)) {
			ix, err := t2.NewIndex(src)
			if err != nil {
				t.Fatalf("case %d %s: %v", ci, name, err)
			}
			for l := 0; l <= ix.Params.Layers+1; l++ {
				size, err := ix.PrefixSize(l)
				if err != nil {
					t.Fatalf("case %d %s layers=%d: %v", ci, name, l, err)
				}
				if got := int64(len(prefixBytes(t, ix, l))); size != got {
					t.Fatalf("case %d %s layers=%d: PrefixSize %d, WritePrefix wrote %d", ci, name, l, size, got)
				}
			}
		}
	}
}

// TestIndexByteAccounting checks RegionBytes consistency and monotonicity:
// more layers or more resolutions never cost fewer bytes, the full request
// equals the whole stream's tile-part bodies, and each tile's last packet
// (last layer, last component, highest resolution) ends exactly at its body's
// end.
func TestIndexByteAccounting(t *testing.T) {
	cs := encodeTestStream(t, jp2k.Options{
		Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 1.0}, TileW: 64, TileH: 96, Levels: 3,
	})
	ix, err := t2.BuildIndex(cs)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, ix.NumTiles())
	for i := range all {
		all[i] = i
	}
	if got, want := ix.RegionBytes(all, 0, 0), bodyBytes(ix); got != want {
		t.Fatalf("full region costs %d bytes, stream carries %d", got, want)
	}
	prev := -1
	for layers := 1; layers <= ix.Params.Layers; layers++ {
		n := ix.RegionBytes(all, 0, layers)
		if n < prev {
			t.Fatalf("layers=%d: %d bytes < layers=%d's %d", layers, n, layers-1, prev)
		}
		prev = n
	}
	prev = 1 << 62
	for discard := 0; discard <= ix.Params.Levels; discard++ {
		n := ix.RegionBytes(all, discard, 0)
		if n > prev {
			t.Fatalf("discard=%d: %d bytes > discard=%d's %d", discard, n, discard-1, prev)
		}
		prev = n
	}
	for ti := 0; ti < ix.NumTiles(); ti++ {
		tile, err := ix.Tile(ti)
		if err != nil {
			t.Fatalf("tile %d: %v", ti, err)
		}
		last := tile.Packets[len(tile.Packets)-1][ix.Params.Layers-1]
		if got, want := int64(last[len(last)-1].End()), ix.Spans()[ti].Len; got != want {
			t.Fatalf("tile %d: full layer prefix %d != body %d", ti, got, want)
		}
	}
}

// TestIndexColorStream runs the span-partition and layer-truncation
// invariants over a Csiz=3 MCT stream: spans are keyed tile x component x
// layer x resolution, RegionBytes sums every component, and the truncated
// color stream decodes identically to MaxLayers.
func TestIndexColorStream(t *testing.T) {
	mk := func(seed uint64) *raster.Image { return raster.Synthetic(230, 190, seed) }
	pl := raster.RGB(mk(101), mk(102), mk(103))
	cs, _, err := jp2k.EncodePlanar(pl, jp2k.Options{
		Kernel: dwt.Irr97, MCT: true, LayerBPP: []float64{0.75, 3.0}, TileW: 100, TileH: 90,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := t2.BuildIndex(cs)
	if err != nil {
		t.Fatal(err)
	}
	p := ix.Params
	if p.Components() != 3 || !p.MCT {
		t.Fatalf("indexed params: %d components, MCT %v", p.Components(), p.MCT)
	}
	// Spans partition each body in LRCP order across the three components.
	for ti := 0; ti < ix.NumTiles(); ti++ {
		tile, err := ix.Tile(ti)
		if err != nil {
			t.Fatalf("tile %d: %v", ti, err)
		}
		pos := 0
		for li := 0; li < p.Layers; li++ {
			for r := 0; r <= p.Levels; r++ {
				for ci := 0; ci < 3; ci++ {
					s := tile.Packets[ci][li][r]
					if s.Off != pos {
						t.Fatalf("tile %d layer %d res %d comp %d: off %d want %d", ti, li, r, ci, s.Off, pos)
					}
					pos = s.End()
				}
			}
		}
		if body := ix.Spans()[ti].Len; int64(pos) != body {
			t.Fatalf("tile %d: packets cover %d of %d body bytes", ti, pos, body)
		}
	}
	all := make([]int, ix.NumTiles())
	for i := range all {
		all[i] = i
	}
	if got, want := ix.RegionBytes(all, 0, 0), bodyBytes(ix); got != want {
		t.Fatalf("full region costs %d bytes, stream carries %d", got, want)
	}
	// Layer truncation: the re-emitted 1-layer color stream decodes exactly
	// as MaxLayers=1.
	pre := prefixBytes(t, ix, 1)
	got, err := jp2k.DecodePlanarSource(t2.BytesSource(pre), jp2k.DecodeOptions{})
	if err != nil {
		t.Fatalf("decoding prefix: %v", err)
	}
	want, err := jp2k.DecodePlanarSource(t2.BytesSource(cs), jp2k.DecodeOptions{MaxLayers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !raster.PlanarEqual(got, want) {
		t.Fatal("truncated color stream decodes differently from MaxLayers=1")
	}
}

// TestIndexRobustness: corrupted and truncated streams must yield errors,
// never panics or absurd allocations.
func TestIndexRobustness(t *testing.T) {
	cs := encodeTestStream(t, jp2k.Options{Kernel: dwt.Rev53, TileW: 64, TileH: 96, Levels: 3})
	try := func(data []byte, label string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: BuildIndex panicked: %v", label, r)
			}
		}()
		_, _ = t2.BuildIndex(data)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), cs...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		try(mut, "flip")
	}
	for trial := 0; trial < 100; trial++ {
		try(cs[:rng.Intn(len(cs))], "truncate")
	}
	if _, err := t2.BuildIndex(nil); err == nil {
		t.Fatal("want error for empty input")
	}
}
