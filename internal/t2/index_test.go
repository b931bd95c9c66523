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
		{
			Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 0.5, 1.0}, TileW: 100, TileH: 90,
			Resilience: jp2k.ResilienceOptions{SOP: true, EPH: true},
		},
		{
			Kernel: dwt.Rev53, LayerBPP: []float64{0.5, 2.0}, TileW: 64, TileH: 96, CBW: 32, CBH: 16, Levels: 3,
			Coder:      jp2k.CoderOptions{Bypass: true, TermAll: true},
			Resilience: jp2k.ResilienceOptions{SegSymbols: true},
		},
	}
}

// TestIndexSpansPartitionTileBodies asserts the fundamental index invariant:
// per tile, the located packets are contiguous in stream order and exactly
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
			if want := nc * p.Layers * (p.Levels + 1); len(tile.Packets) != want {
				t.Fatalf("case %d tile %d: %d packets indexed, want %d", ci, ti, len(tile.Packets), want)
			}
			// Walk the body in stream order: packets must be contiguous and
			// exactly partition the body.
			pos := 0
			for pk, s := range tile.Packets {
				if s.Off != pos {
					t.Fatalf("case %d tile %d packet %d: off %d, want %d", ci, ti, pk, s.Off, pos)
				}
				if s.Len < 0 {
					t.Fatalf("case %d tile %d packet %d: negative length", ci, ti, pk)
				}
				pos = s.End()
			}
			if body := ix.Spans()[ti].Len; int64(pos) != body {
				t.Fatalf("case %d tile %d: packets cover %d of %d body bytes", ci, ti, pos, body)
			}
		}
	}
}

// TestIndexPositionsMatchSOP checks that the encoder and the index agree on
// stream positions by reading the bytes: in the SOP+EPH indexCases stream,
// every Packets[pos] starts with an SOP marker whose Nsop is pos mod 2^16.
func TestIndexPositionsMatchSOP(t *testing.T) {
	o := indexCases()[3]
	if !o.Resilience.SOP {
		t.Fatal("indexCases()[3] no longer carries SOP markers")
	}
	cs := encodeTestStream(t, o)
	ix, err := t2.BuildIndex(cs)
	if err != nil {
		t.Fatal(err)
	}
	for ti, sp := range ix.Spans() {
		tile, err := ix.Tile(ti)
		if err != nil {
			t.Fatalf("tile %d: %v", ti, err)
		}
		for pos, s := range tile.Packets {
			b := cs[sp.Off+int64(s.Off):]
			if s.Len < 6 || b[0] != 0xFF || b[1] != 0x91 || b[2] != 0 || b[3] != 4 {
				t.Fatalf("tile %d packet %d: no SOP at its start (% x)", ti, pos, b[:min(len(b), 6)])
			}
			if nsop := int(b[4])<<8 | int(b[5]); nsop != pos&0xFFFF {
				t.Fatalf("tile %d packet %d: Nsop %d", ti, pos, nsop)
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
	{
		"ceabd67f49465767fbc2132b01cae2c858ff5d8b7c49b0f4ba3af534ace5367c",
		"864647ff8614cf7a1998c5761070396cbe05dd88913a514a0eecc5c963c047aa",
		"91f89b77ee477a7e82601234e248e42157b93909824cd63258f1eecb0e33c965",
	},
	{
		"4fb392b5f08e9adb6997d4b0541149ba075c3f998ed869be4456463e78f615b4",
		"1694ad520dc2c3d6d18e56091ef2291fe79f424116e4e1363e950438c620f302",
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
// ends exactly at its body's end.
func TestIndexByteAccounting(t *testing.T) {
	cs := encodeTestStream(t, jp2k.Options{
		Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 1.0}, TileW: 64, TileH: 96, Levels: 3,
	})
	ix, err := t2.BuildIndex(cs)
	if err != nil {
		t.Fatal(err)
	}
	ntx, nty := ix.Params.NumTiles()
	if got, err := ix.RegionBytes(0, 0, ntx, nty, 0, 0); err != nil || got != bodyBytes(ix) {
		t.Fatalf("full region costs %d bytes (%v), stream carries %d", got, err, bodyBytes(ix))
	}
	prev := -1
	for layers := 1; layers <= ix.Params.Layers; layers++ {
		n, err := ix.RegionBytes(0, 0, ntx, nty, 0, layers)
		if err != nil {
			t.Fatal(err)
		}
		if n < prev {
			t.Fatalf("layers=%d: %d bytes < layers=%d's %d", layers, n, layers-1, prev)
		}
		prev = n
	}
	prev = 1 << 62
	for discard := 0; discard <= ix.Params.Levels; discard++ {
		n, err := ix.RegionBytes(0, 0, ntx, nty, discard, 0)
		if err != nil {
			t.Fatal(err)
		}
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
		last := tile.Packets[len(tile.Packets)-1]
		if got, want := int64(last.End()), ix.Spans()[ti].Len; got != want {
			t.Fatalf("tile %d: full layer prefix %d != body %d", ti, got, want)
		}
	}
}

// TestIndexColorStream runs the span-partition and layer-truncation
// invariants over a Csiz=3 MCT stream: every tile holds a span per component x
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
	// Spans partition each body in stream order across the three components.
	for ti := 0; ti < ix.NumTiles(); ti++ {
		tile, err := ix.Tile(ti)
		if err != nil {
			t.Fatalf("tile %d: %v", ti, err)
		}
		if want := 3 * p.Layers * (p.Levels + 1); len(tile.Packets) != want {
			t.Fatalf("tile %d: %d packets indexed, want %d", ti, len(tile.Packets), want)
		}
		pos := 0
		for pk, s := range tile.Packets {
			if s.Off != pos {
				t.Fatalf("tile %d packet %d: off %d want %d", ti, pk, s.Off, pos)
			}
			pos = s.End()
		}
		if body := ix.Spans()[ti].Len; int64(pos) != body {
			t.Fatalf("tile %d: packets cover %d of %d body bytes", ti, pos, body)
		}
	}
	ntx, nty := ix.Params.NumTiles()
	if got, err := ix.RegionBytes(0, 0, ntx, nty, 0, 0); err != nil || got != bodyBytes(ix) {
		t.Fatalf("full region costs %d bytes (%v), stream carries %d", got, err, bodyBytes(ix))
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
