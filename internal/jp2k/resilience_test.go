package jp2k

import (
	"bytes"
	"context"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/faultinject"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// resilienceCorpus is the encode-option matrix the fault-injection tests run
// over: lossless and lossy, single-tile and tiled, each with and without the
// resilience markers (SOP+EPH+SegSym).
type corpusEntry struct {
	name string
	opts Options
	w, h int
}

func resilienceCorpus() []corpusEntry {
	var out []corpusEntry
	base := []corpusEntry{
		{name: "lossless-64", opts: Options{Kernel: dwt.Rev53}, w: 64, h: 64},
		{name: "lossy-tiled-96", opts: Options{
			Kernel: dwt.Irr97, TileW: 48, TileH: 48, LayerBPP: []float64{0.5, 1.0},
		}, w: 96, h: 96},
		// Terminated coder modes add codeword-segment boundaries inside every
		// block contribution — new framing a mutation can land on.
		{name: "lossless-bypass-termall-64", opts: Options{
			Kernel: dwt.Rev53, Coder: CoderOptions{Bypass: true, TermAll: true},
		}, w: 64, h: 64},
		{name: "lossy-bypass-96", opts: Options{
			Kernel: dwt.Irr97, TileW: 48, TileH: 48, LayerBPP: []float64{0.5, 1.0},
			Coder: CoderOptions{Bypass: true},
		}, w: 96, h: 96},
	}
	for _, e := range base {
		plain := e
		plain.name += "/plain"
		out = append(out, plain)
		marked := e
		marked.name += "/marked"
		marked.opts.Resilience = ResilienceOptions{SOP: true, EPH: true, SegSymbols: true}
		out = append(out, marked)
	}
	return out
}

func encodeEntry(t *testing.T, e corpusEntry) []byte {
	t.Helper()
	cs, _, err := Encode(raster.Synthetic(e.w, e.h, 17), e.opts)
	if err != nil {
		t.Fatalf("%s: encode: %v", e.name, err)
	}
	return cs
}

// TestResilientCleanEqualsStrict pins the zero-damage invariant: on an
// intact stream, resilient decode is bit-identical to strict decode and the
// damage report stays empty — resilience must cost nothing when nothing is
// wrong.
func TestResilientCleanEqualsStrict(t *testing.T) {
	for _, e := range resilienceCorpus() {
		t.Run(e.name, func(t *testing.T) {
			cs := encodeEntry(t, e)
			strict, err := Decode(cs, DecodeOptions{})
			if err != nil {
				t.Fatalf("strict decode: %v", err)
			}
			dec := NewDecoder()
			soft, err := dec.Decode(cs, DecodeOptions{Resilient: true})
			if err != nil {
				t.Fatalf("resilient decode: %v", err)
			}
			if dec.Damage().Damaged() {
				t.Fatalf("clean stream reported damage: %s", dec.Damage())
			}
			if soft.Width != strict.Width || soft.Height != strict.Height {
				t.Fatalf("size %dx%d vs %dx%d", soft.Width, soft.Height, strict.Width, strict.Height)
			}
			for i := range strict.Pix {
				if soft.Pix[i] != strict.Pix[i] {
					t.Fatalf("pixel %d differs: %d vs %d", i, soft.Pix[i], strict.Pix[i])
				}
			}
		})
	}
}

// TestFaultMatrix drives every corpus entry through the standard mutator set
// and requires resilient decode to degrade gracefully: no panic ever, and for
// structural damage (truncation, byte drops) a full-size image plus a
// populated damage report. Header mutations may fail outright — an
// unparseable header leaves nothing to degrade toward — but must fail with an
// error, not a crash.
func TestFaultMatrix(t *testing.T) {
	for _, e := range resilienceCorpus() {
		cs := encodeEntry(t, e)
		for _, m := range faultinject.Mutations(cs, 99) {
			t.Run(e.name+"/"+m.Name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("resilient decode panicked: %v", r)
					}
				}()
				dec := NewDecoder()
				img, err := dec.Decode(m.Data, DecodeOptions{Resilient: true})
				if m.Name == "header-bitflip" {
					return // any non-panic outcome is acceptable
				}
				if err != nil {
					t.Fatalf("tile-body damage must conceal, got error: %v", err)
				}
				if img == nil || img.Width == 0 || img.Height == 0 {
					t.Fatal("resilient decode returned no image")
				}
				// Bit flips can corrupt silently on unmarked streams; framing
				// damage cannot — the walk or the container must notice.
				structural := m.Name[len(m.Name)-len("truncate"):] == "truncate" ||
					m.Name[len(m.Name)-len("drop"):] == "drop"
				if structural && !dec.Damage().Damaged() {
					t.Fatalf("%s produced an empty damage report", m.Name)
				}
			})
		}
	}
}

// TestFaultMatrixStrictNeverPanics runs the same mutations through the
// strict decoder: it may (and usually should) error, but must never crash.
func TestFaultMatrixStrictNeverPanics(t *testing.T) {
	for _, e := range resilienceCorpus() {
		cs := encodeEntry(t, e)
		for _, m := range faultinject.Mutations(cs, 99) {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s/%s: strict decode panicked: %v", e.name, m.Name, r)
					}
				}()
				Decode(m.Data, DecodeOptions{})
			}()
		}
	}
}

// TestDamageLocality is the payoff of SOP/EPH/SegSym: with all three on,
// corrupting one tile's body must leave every pixel outside that tile
// bit-identical to the clean decode — damage stays where the fault is.
func TestDamageLocality(t *testing.T) {
	im := raster.Synthetic(96, 96, 5)
	cs, _, err := Encode(im, Options{
		Kernel: dwt.Irr97, TileW: 48, TileH: 48, LayerBPP: []float64{1.0},
		Resilience: ResilienceOptions{SOP: true, EPH: true, SegSymbols: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Decode(cs, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spans := faultinject.TileBodies(cs)
	if len(spans) != 4 {
		t.Fatalf("%d tile bodies, want 4", len(spans))
	}
	// Damage tile 3 (bottom-right: x,y in [48,96)).
	bad := faultinject.BitFlip(cs, spans[3], 16, 123)
	dec := NewDecoder()
	got, err := dec.Decode(bad, DecodeOptions{Resilient: true})
	if err != nil {
		t.Fatalf("resilient decode: %v", err)
	}
	if !dec.Damage().Damaged() {
		t.Fatal("16 bit flips in a segsym stream went unreported")
	}
	for _, td := range dec.Damage().Tiles {
		if td.Tile != 3 {
			t.Fatalf("damage reported on tile %d, only tile 3 was touched", td.Tile)
		}
	}
	for y := 0; y < 96; y++ {
		for x := 0; x < 96; x++ {
			if x >= 48 && y >= 48 {
				continue // inside the damaged tile
			}
			if got.Pix[y*got.Stride+x] != clean.Pix[y*clean.Stride+x] {
				t.Fatalf("pixel (%d,%d) outside the damaged tile changed", x, y)
			}
		}
	}
}

// TestDecodeContextCancel checks the decode-side context: an already-
// cancelled context aborts before any tile work happens.
func TestDecodeContextCancel(t *testing.T) {
	cs := encodeEntry(t, resilienceCorpus()[0])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Decode(cs, DecodeOptions{Ctx: ctx}); err == nil {
		t.Fatal("cancelled context did not abort decode")
	}
	if _, err := Decode(cs, DecodeOptions{Ctx: context.Background()}); err != nil {
		t.Fatalf("live context broke decode: %v", err)
	}
}

// FuzzDecodeResilient feeds arbitrary bytes to both decode modes; neither
// may panic, and resilient mode may only return (image, nil) or (nil, error)
// — never a nil image with a nil error.
func FuzzDecodeResilient(f *testing.F) {
	for _, e := range []corpusEntry{
		{opts: Options{Kernel: dwt.Rev53}, w: 48, h: 48},
		{opts: Options{
			Kernel: dwt.Irr97, TileW: 32, TileH: 32, LayerBPP: []float64{1.0},
			Resilience: ResilienceOptions{SOP: true, EPH: true, SegSymbols: true},
		}, w: 64, h: 64},
		{opts: Options{
			Kernel: dwt.Rev53, Coder: CoderOptions{Bypass: true, TermAll: true},
			Resilience: ResilienceOptions{SegSymbols: true},
		}, w: 48, h: 48},
	} {
		cs, _, err := Encode(raster.Synthetic(e.w, e.h, 3), e.opts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(cs)
		for _, m := range faultinject.Mutations(cs, 7) {
			f.Add(m.Data)
		}
		// The decompression-bomb shape: a legitimate stream whose SIZ claims
		// a 2^40-pixel image (Xsiz at byte 8, Ysiz at 12).
		bomb := append([]byte(nil), cs...)
		for _, off := range []int{8, 12} {
			bomb[off], bomb[off+1], bomb[off+2], bomb[off+3] = 0x00, 0x10, 0x00, 0x00
		}
		f.Add(bomb)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		// The default sample budget admits ~1GB of planes — fine as a DoS
		// bound, uselessly slow per fuzz exec. Pass over headers declaring
		// more than 1<<22 samples so the fuzzer spends its time in the codec,
		// not in clearing huge allocations.
		if p, _, _, err := new(t2.Scanner).Scan(t2.BytesSource(data), true); err == nil &&
			int64(p.Width)*int64(p.Height)*int64(p.Components()) > 1<<22 {
			return
		}
		dec := NewDecoder()
		img, err := dec.Decode(data, DecodeOptions{Resilient: true})
		if err == nil && img == nil {
			t.Fatal("resilient decode returned nil image and nil error")
		}
		Decode(data, DecodeOptions{})
	})
}

// TestResilientSOPResyncCounts pins the resilient walk's SOP resync
// accounting at packet granularity. In a single-layer SOP+EPH stream it
// zeroes the first header byte of one non-empty packet of one tile, which
// turns the packet's empty-bit off so its header ends before the real EPH.
// A packet in the middle of the tile must be skipped by resyncing to the next
// SOP, {1 bad, 1 resynced, 1 lost}; the tile's last packet has no SOP after
// it, so the walk abandons it, {1 bad, 0 resynced, 1 lost}. Every other tile
// must stay undamaged.
func TestResilientSOPResyncCounts(t *testing.T) {
	cs, _, err := Encode(raster.Synthetic(96, 96, 11), Options{
		Kernel: dwt.Rev53, TileW: 48, TileH: 48,
		Resilience: ResilienceOptions{SOP: true, EPH: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	bodies := faultinject.TileBodies(cs)
	if len(bodies) != 4 {
		t.Fatalf("%d tile bodies, want 4", len(bodies))
	}
	const tile = 2
	body := bodies[tile]
	// Packet starts, by their SOP markers (FF91, Lsop = 4).
	var sops []int
	for i := body.Off; i+6 <= body.End(); i++ {
		if cs[i] == 0xFF && cs[i+1] == 0x91 && cs[i+2] == 0 && cs[i+3] == 4 {
			sops = append(sops, i)
		}
	}
	if len(sops) < 3 || sops[0] != body.Off {
		t.Fatalf("found %d SOP markers, the first at %d; body starts at %d", len(sops), sops[0], body.Off)
	}
	last := len(sops) - 1
	mid := -1
	for k := 1; k < last; k++ {
		if cs[sops[k]+6]&0x80 != 0 { // empty-bit set: a non-empty packet
			mid = k
			break
		}
	}
	if mid < 0 || cs[sops[last]+6]&0x80 == 0 {
		t.Fatalf("tile %d: no non-empty middle packet (%d) or an empty last one", tile, mid)
	}
	for _, c := range []struct {
		name string
		pk   int
		want TileDamage
	}{
		{"middle", mid, TileDamage{Tile: tile, BadPackets: 1, PacketsResynced: 1, PacketsLost: 1}},
		{"last", last, TileDamage{Tile: tile, BadPackets: 1, PacketsResynced: 0, PacketsLost: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := append([]byte(nil), cs...)
			bad[sops[c.pk]+6] = 0
			dec := NewDecoder()
			if _, err := dec.Decode(bad, DecodeOptions{Resilient: true}); err != nil {
				t.Fatalf("resilient decode: %v", err)
			}
			tiles := dec.Damage().Tiles
			if len(tiles) != 1 {
				t.Fatalf("damage on %d tiles, want only tile %d: %+v", len(tiles), tile, tiles)
			}
			if tiles[0] != c.want {
				t.Fatalf("packet %d zeroed: damage %+v, want %+v", c.pk, tiles[0], c.want)
			}
		})
	}
}

// TestResilientContainerSalvage pins the container salvage only the scanning
// route has, which is why pj2kdec -resilient decodes with DecodePlanarSource:
// Decoder.scan pads a missing tile-part with a sentinel that decodes as the
// empty tile, and drops surplus tile-parts. A stream cut before its last
// tile-part reports Truncated, its last tile comes back mid-gray and every
// other tile equals a clean decode; a stream with its last tile-part repeated
// reports BadTileParts and decodes clean. t2.NewIndex, the served route's
// scan, refuses both.
func TestResilientContainerSalvage(t *testing.T) {
	const size, tile = 96, 48
	cs, _, err := Encode(raster.Synthetic(size, size, 5), Options{Kernel: dwt.Rev53, TileW: tile, TileH: tile})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := DecodePlanarSource(t2.BytesSource(cs), DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Bit stuffing keeps 0xFF90 out of tile bodies, so the last one in the
	// stream is the last tile-part's SOT; the stream ends with EOC.
	last, eoc := bytes.LastIndex(cs, []byte{0xFF, 0x90}), len(cs)-2
	cut := cs[:last]
	surplus := append(append(append([]byte(nil), cs[:eoc]...), cs[last:eoc]...), cs[eoc:]...)

	for _, c := range []struct {
		name      string
		stream    []byte
		truncated bool
		badParts  int
	}{
		{"cut before the last tile-part", cut, true, 0},
		{"last tile-part repeated", surplus, false, 1},
	} {
		if _, err := t2.NewIndex(t2.BytesSource(c.stream)); err == nil {
			t.Errorf("%s: t2.NewIndex accepted the stream", c.name)
		}
		if _, err := DecodePlanarSource(t2.BytesSource(c.stream), DecodeOptions{}); err == nil {
			t.Errorf("%s: strict decode accepted the stream", c.name)
		}
		dec := NewDecoder()
		got, err := dec.DecodePlanarSource(t2.BytesSource(c.stream), DecodeOptions{Resilient: true})
		if err != nil {
			t.Fatalf("%s: resilient decode: %v", c.name, err)
		}
		if cd := dec.Damage().Container; cd.Truncated != c.truncated || cd.BadTileParts != c.badParts {
			t.Errorf("%s: container damage %+v, want Truncated %v, BadTileParts %d", c.name, cd, c.truncated, c.badParts)
		}
		for y := range size {
			for x := range size {
				want := clean.Comps[0].At(x, y)
				if c.truncated && x >= tile && y >= tile {
					want = 128 // the empty tile: zero coefficients plus the 8-bit level shift
				}
				if g := got.Comps[0].At(x, y); g != want {
					t.Fatalf("%s: sample (%d,%d) = %d, want %d", c.name, x, y, g, want)
				}
			}
		}
	}
}
