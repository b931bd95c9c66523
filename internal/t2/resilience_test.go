package t2

import (
	"strings"
	"testing"

	"pj2k/internal/dwt"
)

func resilienceParams() Params {
	return Params{
		Width: 64, Height: 64, TileW: 64, TileH: 64,
		BitDepth: 8, Levels: 2, Layers: 1, CBW: 32, CBH: 32,
		Kernel: dwt.Rev53, GuardBits: 2, Mb: [][]int{{8, 9, 9, 10, 7, 7, 8}},
	}
}

func TestResilienceFlagsRoundTrip(t *testing.T) {
	for _, tc := range []struct{ sop, eph, seg bool }{
		{false, false, false},
		{true, false, false},
		{false, true, false},
		{false, false, true},
		{true, true, true},
	} {
		p := resilienceParams()
		p.UseSOP, p.UseEPH, p.SegSym = tc.sop, tc.eph, tc.seg
		cs := WriteCodestream(p, [][]byte{{1, 2, 3}})
		q, _, err := ScanCodestream(BytesSource(cs))
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if q.UseSOP != tc.sop || q.UseEPH != tc.eph || q.SegSym != tc.seg {
			t.Fatalf("flags %+v round-tripped as SOP=%v EPH=%v SegSym=%v",
				tc, q.UseSOP, q.UseEPH, q.SegSym)
		}
	}
}

// TestDecompressionBombGuard patches a legitimate header to declare an
// absurd image: a few dozen bytes must not be able to command a multi-
// terabyte allocation, in either strict or resilient parsing.
func TestDecompressionBombGuard(t *testing.T) {
	cs := WriteCodestream(resilienceParams(), [][]byte{{1, 2, 3}})
	// SIZ layout: SOC(2) SIZ(2) Lsiz(2) Rsiz(2), then Xsiz at 8, Ysiz at 12.
	bomb := append([]byte(nil), cs...)
	for _, off := range []int{8, 12} {
		bomb[off], bomb[off+1], bomb[off+2], bomb[off+3] = 0x00, 0x10, 0x00, 0x00 // 1<<20
	}
	if _, _, err := ScanCodestream(BytesSource(bomb)); err == nil {
		t.Fatal("strict parse accepted a 2^40-pixel header")
	} else if !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("unexpected error: %v", err)
	}
	p, _, dmg, err := ScanCodestreamResilient(BytesSource(bomb))
	if err != nil {
		t.Fatalf("resilient parse must degrade, not fail: %v", err)
	}
	if !dmg.Any() {
		t.Fatal("resilient parse of a bomb header reported no damage")
	}
	// Whatever partial params survive must still be refused by the
	// geometry gate every decoder runs before allocating.
	if err := p.CheckGeometry(); err == nil {
		t.Fatal("CheckGeometry accepted the partial bomb params")
	}
}

// TestBombCapConfigurable exercises the maxImagePixels knob: a stream that
// parses under the default budget is rejected once the cap drops below its
// sample count.
func TestBombCapConfigurable(t *testing.T) {
	cs := WriteCodestream(resilienceParams(), [][]byte{{1, 2, 3}})
	if _, _, err := ScanCodestream(BytesSource(cs)); err != nil {
		t.Fatalf("baseline parse: %v", err)
	}
	old := maxImagePixels
	defer func() { maxImagePixels = old }()
	maxImagePixels = 63 * 63 // below the 64x64 sample count
	if _, _, err := ScanCodestream(BytesSource(cs)); err == nil {
		t.Fatal("lowered maxImagePixels did not reject the stream")
	}
}
