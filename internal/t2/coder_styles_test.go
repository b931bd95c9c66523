package t2_test

import (
	"bytes"
	"strings"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/jp2k"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// codStyleOffset locates the COD code-block style byte in a codestream: the
// marker (FF 52), its length field, and ten parameter bytes precede it.
func codStyleOffset(t *testing.T, cs []byte) int {
	t.Helper()
	i := bytes.Index(cs, []byte{0xFF, 0x52})
	if i < 0 {
		t.Fatal("no COD marker")
	}
	return i + 12
}

// TestUnknownStyleBitsRejected is the regression test for the silent
// mis-decode bug class: COD signalling this decoder does not implement — a
// code-block style bit, a non-LRCP progression order, user-defined precincts
// (Scod bit 0, or the longer segment they imply) — used to be ignored, and
// the packet walk then mis-parsed every packet or block. Strict parsing must
// reject it with a clear error; resilient parsing must ignore it, count the
// salvage, and still decode the stream.
func TestUnknownStyleBitsRejected(t *testing.T) {
	im := raster.Synthetic(64, 64, 3)
	cs, _, err := jp2k.Encode(im, jp2k.Options{Kernel: dwt.Rev53})
	if err != nil {
		t.Fatal(err)
	}
	style := codStyleOffset(t, cs)
	// Offsets relative to the style byte: Lcod's low byte at -9, Scod at -8,
	// the progression order at -7.
	for _, m := range []struct {
		name string
		off  int
		mut  func(b byte) byte
	}{
		{"style bit 0x10 (predictable termination)", style, func(b byte) byte { return b | 0x10 }},
		{"style bit 0x40 (reserved)", style, func(b byte) byte { return b | 0x40 }},
		{"style bit 0x80 (reserved)", style, func(b byte) byte { return b | 0x80 }},
		{"Lcod 13", style - 9, func(byte) byte { return 13 }},
		{"Scod precinct bit", style - 8, func(b byte) byte { return b | 0x01 }},
		{"progression RPCL", style - 7, func(byte) byte { return 2 }},
	} {
		bad := append([]byte(nil), cs...)
		bad[m.off] = m.mut(bad[m.off])

		if _, _, err := t2.ScanCodestream(t2.BytesSource(bad)); err == nil {
			t.Fatalf("%s accepted by strict parse", m.name)
		} else if !strings.Contains(err.Error(), "unsupported COD") {
			t.Fatalf("%s: unhelpful error %q", m.name, err)
		}
		if _, err := jp2k.Decode(bad, jp2k.DecodeOptions{}); err == nil {
			t.Fatalf("%s decoded strictly", m.name)
		}

		p, spans, dmg, err := new(t2.Scanner).Scan(t2.BytesSource(bad), true)
		if err != nil {
			t.Fatalf("%s: resilient parse failed: %v", m.name, err)
		}
		if dmg.BadStyles != 1 || !dmg.Any() {
			t.Fatalf("%s: salvage not reported: %+v", m.name, dmg)
		}
		if len(spans) == 0 || p.Bypass || p.TermAll || p.ResetCtx || p.Causal {
			t.Fatalf("%s: salvaged params polluted: %+v", m.name, p)
		}
		// The stream was in fact encoded as LRCP without precincts or the
		// unknown mode, so the salvage decodes it losslessly.
		dec := jp2k.NewDecoder()
		out, err := dec.Decode(bad, jp2k.DecodeOptions{Resilient: true})
		if err != nil {
			t.Fatalf("%s: resilient decode: %v", m.name, err)
		}
		if rep := dec.Damage(); rep == nil || rep.Container.BadStyles != 1 {
			t.Fatalf("%s: decode did not report BadStyles: %+v", m.name, rep)
		}
		dec.Close()
		for i := range im.Pix {
			if out.Pix[i] != im.Pix[i] {
				t.Fatalf("%s: salvaged decode differs at %d", m.name, i)
			}
		}
	}
}

// TestKnownStyleBitsRoundTrip pins the COD byte itself: each supported style
// sets exactly its standard bit, and the parse restores the flag.
func TestKnownStyleBitsRoundTrip(t *testing.T) {
	im := raster.Synthetic(48, 48, 9)
	cases := []struct {
		coder jp2k.CoderOptions
		seg   bool
		want  byte
	}{
		{jp2k.CoderOptions{Bypass: true}, false, 0x01},
		{jp2k.CoderOptions{ResetCtx: true}, false, 0x02},
		{jp2k.CoderOptions{TermAll: true}, false, 0x04},
		{jp2k.CoderOptions{Causal: true}, false, 0x08},
		{jp2k.CoderOptions{}, true, 0x20},
		{jp2k.CoderOptions{Bypass: true, TermAll: true, ResetCtx: true, Causal: true}, true, 0x2F},
	}
	for _, c := range cases {
		cs, _, err := jp2k.Encode(im, jp2k.Options{
			Kernel: dwt.Rev53, Coder: c.coder,
			Resilience: jp2k.ResilienceOptions{SegSymbols: c.seg},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := cs[codStyleOffset(t, cs)]; got != c.want {
			t.Fatalf("%+v segsym=%v: COD style byte %#02x, want %#02x", c.coder, c.seg, got, c.want)
		}
		p, _, err := t2.ScanCodestream(t2.BytesSource(cs))
		if err != nil {
			t.Fatal(err)
		}
		m := p.CoderModes()
		if m.Bypass != c.coder.Bypass || m.ResetCtx != c.coder.ResetCtx ||
			m.TermAll != c.coder.TermAll || m.Causal != c.coder.Causal || m.SegSym != c.seg {
			t.Fatalf("%+v segsym=%v: parsed modes %+v", c.coder, c.seg, m)
		}
	}
}
