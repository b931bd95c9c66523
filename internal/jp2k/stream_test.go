package jp2k

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/faultinject"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// fileSource writes cs to a temp file and opens it as a t2.Source, so the
// decode under test really goes through io.ReaderAt on the filesystem — the
// acceptance path for the streaming decoder.
func fileSource(t testing.TB, cs []byte) *t2.Source {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.j2k")
	if err := os.WriteFile(path, cs, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := t2.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src
}

func planarsEqual(t *testing.T, got, want *raster.Planar, label string) {
	t.Helper()
	if got.NComp() != want.NComp() || got.Width() != want.Width() || got.Height() != want.Height() {
		t.Fatalf("%s: %dx%dx%d vs %dx%dx%d", label,
			got.Width(), got.Height(), got.NComp(), want.Width(), want.Height(), want.NComp())
	}
	if !raster.PlanarEqual(got, want) {
		t.Fatalf("%s: pixels differ", label)
	}
}

// TestGoldenHashesFileSource is the streaming half of the bit-identity gate:
// every golden and coder-modes stream, written to disk and decoded through a
// file-backed Source, must come out pixel-identical to the resident-bytes
// decode (which TestGoldenHashes/TestCoderModesGoldenHashes pin to the
// historical hashes). Together the two tests prove the ReaderAt path changes
// nothing about WHAT is decoded, only where the bytes live.
func TestGoldenHashesFileSource(t *testing.T) {
	for _, gc := range append(goldenCases(), modeGoldenCases()...) {
		t.Run(gc.name, func(t *testing.T) {
			// gen output always begins with the codestream; the region-decode
			// case appends raw pixels after EOC, which the parser never reads.
			cs := gc.gen(t, 4)
			want, err := DecodePlanarSource(t2.BytesSource(cs), DecodeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			dec := NewDecoder()
			defer dec.Close()
			got, err := dec.DecodePlanarSource(fileSource(t, cs), DecodeOptions{})
			if err != nil {
				t.Fatalf("file-source decode: %v", err)
			}
			planarsEqual(t, got, want, "file source vs in-memory")
		})
	}
}

// TestDecodeRegionFileSource: windowed decodes through a file Source only
// read the window's tiles, and must match the in-memory region decode for
// every reduction.
func TestDecodeRegionFileSource(t *testing.T) {
	im := raster.Synthetic(256, 256, 41)
	cs, _, err := Encode(im, Options{
		Kernel: dwt.Irr97, LayerBPP: []float64{1.0}, TileW: 64, TileH: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := fileSource(t, cs)
	dec := NewDecoder()
	defer dec.Close()
	for _, reg := range []Rect{
		{X0: 50, Y0: 70, X1: 200, Y1: 130},
		{X0: 0, Y0: 0, X1: 64, Y1: 64},
		{X0: 63, Y0: 63, X1: 65, Y1: 65},
	} {
		for reduce := 0; reduce <= 2; reduce++ {
			// Region coordinates live in the reduced grid.
			rr := Rect{X0: reg.X0 >> reduce, Y0: reg.Y0 >> reduce, X1: reg.X1 >> reduce, Y1: reg.Y1 >> reduce}
			opts := DecodeOptions{DiscardLevels: reduce}
			want, err := decodeRegion(nil, cs, rr, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.DecodeRegionPlanarSource(src, rr, opts)
			if err != nil {
				t.Fatalf("region %v reduce %d: %v", rr, reduce, err)
			}
			if !raster.Equal(got.Comps[0], want) {
				t.Fatalf("region %v reduce %d: file-source decode differs", rr, reduce)
			}
		}
	}
}

// TestDecodeRegionIndexMatchesSource: decoding from a t2.Index is the scanning
// route minus the scan. Over every shape, worker count, reduction, layer
// limit, mode and source kind, DecodeRegion matches DecodeRegionPlanarSource
// bit for bit — pixels, damage report and input accounting — and over a
// ReaderAt it issues exactly one read per selected tile, where the scanning
// route re-reads the header and the whole tile-part chain first.
func TestDecodeRegionIndexMatchesSource(t *testing.T) {
	r, g, b := rgbPlanes(144, 112)
	shapes := []struct {
		name string
		pl   *raster.Planar
		opts Options
	}{
		{"onetile-53", raster.Gray(raster.Synthetic(120, 88, 31)),
			Options{Kernel: dwt.Rev53, LayerBPP: []float64{0.5, 2}}},
		{"tiled-97", raster.Gray(raster.Synthetic(176, 144, 32)),
			Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.5, 1.5}, TileW: 48, TileH: 40}},
		{"color-mct", raster.RGB(r, g, b),
			Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.75, 2}, TileW: 64, TileH: 48, MCT: true}},
	}
	for _, sh := range shapes {
		cs, _, err := EncodePlanar(sh.pl, sh.opts)
		if err != nil {
			t.Fatal(err)
		}
		reader := faultinject.NewFlaky(bytes.NewReader(cs), faultinject.FlakyConfig{})
		for _, kind := range []struct {
			name    string
			src     *t2.Source
			counted bool // reads go through reader, which counts them
		}{
			{"bytes", t2.BytesSource(cs), false},
			{"readerat", t2.NewSource(reader, int64(len(cs))), true},
		} {
			ix, err := t2.NewIndex(kind.src)
			if err != nil {
				t.Fatal(err)
			}
			scanDec, ixDec := NewDecoder(), NewDecoder()
			for _, resilient := range []bool{false, true} {
				for _, workers := range []int{1, 2, 4} {
					for _, discard := range []int{0, 2} {
						for _, layers := range []int{1, 0} {
							label := fmt.Sprintf("%s/%s/resilient=%v/w=%d/discard=%d/layers=%d",
								sh.name, kind.name, resilient, workers, discard, layers)
							colW, rowH := TileGrid(ix.Params, discard)
							w, h := colW[len(colW)-1], rowH[len(rowH)-1]
							region := Rect{X0: w / 5, Y0: h / 4, X1: w * 3 / 4, Y1: h * 2 / 3}
							opts := DecodeOptions{Resilient: resilient, Workers: workers, DiscardLevels: discard, MaxLayers: layers}
							want, err := scanDec.DecodeRegionPlanarSource(kind.src, region, opts)
							if err != nil {
								t.Fatalf("%s: scanning route: %v", label, err)
							}
							before := reader.Calls()
							got, err := ixDec.DecodeRegion(ix, kind.src, region, opts)
							if err != nil {
								t.Fatalf("%s: indexed route: %v", label, err)
							}
							reads := reader.Calls() - before
							planarsEqual(t, got, want, label)
							if !reflect.DeepEqual(ixDec.Damage(), scanDec.Damage()) {
								t.Fatalf("%s: damage %+v, scanning route %+v", label, ixDec.Damage(), scanDec.Damage())
							}
							gs, ws := ixDec.Stats(), scanDec.Stats()
							if gs.Tiles != ws.Tiles || gs.CodeBlocks != ws.CodeBlocks || gs.BytesIn != ws.BytesIn {
								t.Fatalf("%s: stats %+v, scanning route %+v", label, gs, ws)
							}
							if kind.counted && reads != int64(gs.Tiles) {
								t.Fatalf("%s: indexed route issued %d reads for %d tiles", label, reads, gs.Tiles)
							}
						}
					}
				}
			}
			scanDec.Close()
			ixDec.Close()
		}
	}
}

// TestDecodeStatsBytesInIsTileBodies: BytesIn (and so
// pj2k_codec_decoded_bytes_total) counts the tile-part bodies a decode
// selected, not the whole codestream: a one-tile window of a 4x4-tiled stream
// reports exactly that tile's span length, a full decode every span's.
func TestDecodeStatsBytesInIsTileBodies(t *testing.T) {
	cs, _, err := Encode(raster.Synthetic(256, 256, 5), Options{Kernel: dwt.Rev53, TileW: 64, TileH: 64})
	if err != nil {
		t.Fatal(err)
	}
	_, spans, err := t2.ScanCodestream(t2.BytesSource(cs))
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	defer dec.Close()
	// Tile (2, 1) of the 4x4 grid, index 1*4+2.
	if _, err := dec.DecodeRegionPlanarSource(t2.BytesSource(cs), Rect{X0: 128, Y0: 64, X1: 192, Y1: 128}, DecodeOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := dec.Stats(); st.Tiles != 1 || st.BytesIn != int(spans[6].Len) {
		t.Fatalf("one-tile decode: %d tiles, BytesIn %d; want 1 tile, %d (stream %d bytes)",
			st.Tiles, st.BytesIn, spans[6].Len, len(cs))
	}
	if _, err := dec.DecodePlanarSource(t2.BytesSource(cs), DecodeOptions{}); err != nil {
		t.Fatal(err)
	}
	var all int64
	for _, sp := range spans {
		all += sp.Len
	}
	if st := dec.Stats(); st.BytesIn != int(all) {
		t.Fatalf("full decode: BytesIn %d, want %d (stream %d bytes)", st.BytesIn, all, len(cs))
	}
}

// TestResilientSourceKindsEqual runs the fault matrix over both source kinds:
// both go through the one scan-to-spans route, so a resilient decode of a
// damaged stream must produce the same salvage — pixels and damage report,
// container and per tile — whether the bytes are resident or behind a file
// ReaderAt.
func TestResilientSourceKindsEqual(t *testing.T) {
	for _, e := range resilienceCorpus() {
		cs := encodeEntry(t, e)
		for _, m := range faultinject.Mutations(cs, 99) {
			t.Run(e.name+"/"+m.Name, func(t *testing.T) {
				dm, df := NewDecoder(), NewDecoder()
				defer dm.Close()
				defer df.Close()
				opts := DecodeOptions{Resilient: true}
				mem, memErr := dm.DecodePlanarSource(t2.BytesSource(m.Data), opts)
				file, fileErr := df.DecodePlanarSource(fileSource(t, m.Data), opts)
				if (memErr == nil) != (fileErr == nil) {
					t.Fatalf("outcome differs by source kind: mem err %v, file err %v", memErr, fileErr)
				}
				if memErr != nil {
					return
				}
				if !raster.PlanarEqual(mem, file) {
					t.Fatal("salvaged image differs between resident and file source")
				}
				if !reflect.DeepEqual(dm.Damage(), df.Damage()) {
					t.Fatalf("damage report differs by source kind:\nmem  %+v\nfile %+v", dm.Damage(), df.Damage())
				}
			})
		}
	}
}

// TestDecodeRegionBoundedMemory is the peak-memory regression gate for the
// streaming path: walking a many-tile image window by window through
// DecodeRegionPlanarSource must keep the retained heap bounded by the window's
// tiles, far below the full image footprint. Gated off -short (CI runs the
// full suite; `go test -short` skips it for quick local iteration).
func TestDecodeRegionBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("peak-memory walk skipped in -short mode")
	}
	const imgW, imgH, tile = 1536, 1536, 128 // 144 tiles, 9.4 MiB plane
	cs, _, err := Encode(raster.Synthetic(imgW, imgH, 23), Options{
		Kernel: dwt.Rev53, TileW: tile, TileH: tile, Levels: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := fileSource(t, cs)
	cs = nil // drop the resident copy; only the file remains

	const win = 256 // 2x2 tiles per window
	dec := NewDecoder()
	defer dec.Close()
	decodeWindow := func(x0, y0 int) {
		if _, err := dec.DecodeRegionPlanarSource(src, Rect{X0: x0, Y0: y0, X1: x0 + win, Y1: y0 + win}, DecodeOptions{}); err != nil {
			t.Fatalf("window (%d,%d): %v", x0, y0, err)
		}
	}
	// Warm the decoder's pools on one window, then baseline the heap: steady
	// state is what the bound is about, not first-touch pool growth.
	decodeWindow(0, 0)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	for y := 0; y < imgH; y += win {
		for x := 0; x < imgW; x += win {
			decodeWindow(x, y)
		}
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	// The full image is imgW*imgH*4 ≈ 9.4 MiB per plane (and a resident
	// decode holds several planes plus the codestream). Steady-state growth
	// across a 36-window walk must stay far below one full plane; 2 MiB
	// allows pool wobble while failing hard if anything starts accumulating
	// whole-image state.
	const capBytes = 2 << 20
	full := uint64(imgW * imgH * 4)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap growth %d bytes over the walk (full plane %d)", grew, full)
	if grew > capBytes {
		t.Fatalf("windowed walk grew the heap by %d bytes (cap %d, full plane %d) — "+
			"region decode is no longer memory-bounded", grew, capBytes, full)
	}
}

// TestDecodeRegionRecycledOutput: DecodeRegion returns the Decoder's own
// output image, reshaped in place, so every decode must overwrite every sample
// of it. One Decoder alternates shapes — gray 9/7 tiled, colour 5/3 with the
// MCT, 12-bit, reduce 0 and 2, and a resilient decode whose one unreadable
// tile-part is concealed — and before each decode the previous result's whole
// sample block is filled with a sentinel; each result must equal a fresh
// DecodeRegionPlanarSource decode, damage report included. A warm decode then
// allocates nothing strict and only its DamageReport resilient, at one and two
// workers, over the same alternation.
func TestDecodeRegionRecycledOutput(t *testing.T) {
	deep := raster.Synthetic(120, 100, 41)
	for i, v := range deep.Pix {
		deep.Pix[i] = v << 4
	}
	encode := func(pl *raster.Planar, opts Options) *t2.Source {
		cs, _, err := EncodePlanar(pl, opts)
		if err != nil {
			t.Fatal(err)
		}
		return t2.BytesSource(cs)
	}
	gray := encode(raster.Gray(raster.Synthetic(176, 144, 32)),
		Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.5, 1.5}, TileW: 48, TileH: 40})
	col := encode(colorPlanar(144, 112), Options{Kernel: dwt.Rev53, MCT: true, TileW: 64, TileH: 48})
	deep12 := encode(raster.Gray(deep), Options{Kernel: dwt.Rev53, BitDepth: 12, TileW: 64, TileH: 64, Levels: 3})
	// A tile-part whose body cannot be read: resilient decodes conceal it.
	lossy := chaosStream(t, 96, 96, 48)
	broken, _ := flakySource(lossy, faultinject.FlakyConfig{FailSpan: faultinject.TileBodies(lossy)[3]}, t2.RetryPolicy{})

	type shape struct {
		name     string
		src      *t2.Source
		region   Rect
		discard  int
		conceals bool // decoded resilient only
	}
	shapes := []shape{
		{"gray97", gray, Rect{X0: 13, Y0: 9, X1: 150, Y1: 131}, 0, false},
		{"colour53-mct", col, Rect{X0: 5, Y0: 7, X1: 99, Y1: 80}, 0, false},
		{"gray97-reduce2", gray, Rect{X0: 3, Y0: 2, X1: 40, Y1: 33}, 2, false},
		{"deep12", deep12, Rect{X1: 120, Y1: 100}, 0, false},
		{"colour53-mct-reduce2", col, Rect{X0: 1, Y0: 1, X1: 30, Y1: 25}, 2, false},
		{"concealed", broken, Rect{X0: 20, Y0: 30, X1: 96, Y1: 96}, 0, true},
	}
	ixs := make([]*t2.Index, len(shapes))
	blockLen := 0 // the largest sample block any shape needs
	for i, sh := range shapes {
		ix, err := t2.NewIndex(sh.src)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		ixs[i] = ix
		blockLen = max(blockLen, sh.region.Dx()*sh.region.Dy()*ix.Params.Components())
	}
	const sentinel = -0x5a5a5a5

	ref := NewDecoder()
	defer ref.Close()
	for _, workers := range []int{1, 2} {
		for _, resilient := range []bool{false, true} {
			dec := NewDecoder()
			var cycle []int // the shapes this pass decodes, in order
			for i, sh := range shapes {
				if resilient || !sh.conceals {
					cycle = append(cycle, i)
				}
			}
			var prev *raster.Planar
			for round := range 3 {
				for _, i := range cycle {
					sh := shapes[i]
					label := fmt.Sprintf("w=%d/resilient=%v/round %d/%s", workers, resilient, round, sh.name)
					opts := DecodeOptions{Workers: workers, Resilient: resilient, DiscardLevels: sh.discard}
					if prev != nil {
						for j := range prev.Reshape(blockLen, 1, 1).Comps[0].Pix {
							prev.Comps[0].Pix[j] = sentinel
						}
					}
					got, err := dec.DecodeRegion(ixs[i], sh.src, sh.region, opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if prev != nil && got != prev {
						t.Fatalf("%s: DecodeRegion returned a new image, not the Decoder's own", label)
					}
					prev = got
					want, err := ref.DecodeRegionPlanarSource(sh.src, sh.region, opts)
					if err != nil {
						t.Fatalf("%s: fresh decode: %v", label, err)
					}
					planarsEqual(t, got, want, label)
					if !reflect.DeepEqual(dec.Damage(), ref.Damage()) {
						t.Fatalf("%s: damage %+v, fresh decode %+v", label, dec.Damage(), ref.Damage())
					}
					if sh.conceals && dec.Damage().Totals().IOUnreadable != 1 {
						t.Fatalf("%s: damage %v, want one unreadable tile", label, dec.Damage())
					}
				}
			}
			// The concealed decode's report lists its damaged tile, one more
			// allocation; the counted alternation is the clean shapes.
			var clean []int
			for _, i := range cycle {
				if !shapes[i].conceals {
					clean = append(clean, i)
				}
			}
			n := testing.AllocsPerRun(10, func() {
				for _, i := range clean {
					sh := shapes[i]
					opts := DecodeOptions{Workers: workers, Resilient: resilient, DiscardLevels: sh.discard}
					if _, err := dec.DecodeRegion(ixs[i], sh.src, sh.region, opts); err != nil {
						t.Fatalf("%s: %v", sh.name, err)
					}
				}
			}) / float64(len(clean))
			want := 0.0
			if resilient {
				want = 1 // the DamageReport
			}
			if n != want {
				t.Errorf("w=%d resilient=%v: warm DecodeRegion allocates %.2f times per decode over alternating shapes, want %.0f",
					workers, resilient, n, want)
			}
			dec.Close()
		}
	}
}
