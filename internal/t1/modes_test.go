package t1

import (
	"fmt"
	"testing"

	"pj2k/internal/dwt"
)

// modeCombos are the coder-style combinations the round-trip matrix covers:
// every single style plus the interactions that change segment structure.
var modeCombos = []Modes{
	{},
	{Bypass: true},
	{TermAll: true},
	{ResetCtx: true},
	{Causal: true},
	{SegSym: true},
	{Bypass: true, TermAll: true},
	{Bypass: true, Causal: true},
	{TermAll: true, ResetCtx: true},
	{Bypass: true, TermAll: true, ResetCtx: true, Causal: true},
	{Bypass: true, TermAll: true, SegSym: true},
	{Bypass: true, Causal: true, SegSym: true},
}

func modeName(m Modes) string {
	s := ""
	if m.Bypass {
		s += "+bypass"
	}
	if m.TermAll {
		s += "+termall"
	}
	if m.ResetCtx {
		s += "+reset"
	}
	if m.Causal {
		s += "+causal"
	}
	if m.SegSym {
		s += "+segsym"
	}
	if s == "" {
		return "default"
	}
	return s[1:]
}

func TestModesRoundTripExact(t *testing.T) {
	sizes := [][2]int{{1, 1}, {5, 7}, {16, 16}, {13, 4}, {32, 32}, {64, 64}, {3, 64}, {33, 29}}
	co := NewCoder()
	for _, m := range modeCombos {
		co.Modes = m
		for _, sz := range sizes {
			for _, band := range bandTypes {
				// maxMag 30000 gives ~15 bit-planes, deep enough that the
				// bypass boundary (4th significant plane) is well exercised.
				data := randBlock(sz[0], sz[1], 30000, 0.6, int64(sz[0]*7919+sz[1])+int64(band))
				eb := co.Encode(data, sz[0], sz[1], sz[0], band)
				got, err := decodeBlock(eb, len(eb.Passes))
				if err != nil {
					t.Fatalf("%s size %v band %v: %v", modeName(m), sz, band, err)
				}
				for i := range data {
					if got[i] != data[i] {
						t.Fatalf("%s size %v band %v: sample %d got %d want %d",
							modeName(m), sz, band, i, got[i], data[i])
					}
				}
			}
		}
		co.Release()
	}
}

func TestModesEveryPrefixDecodable(t *testing.T) {
	co := NewCoder()
	bd := NewBlockDecoder()
	for _, m := range modeCombos {
		co.Modes = m
		data := randBlock(32, 32, 20000, 0.5, 171)
		eb := co.Encode(data, 32, 32, 32, dwt.HL)
		for np := 0; np <= len(eb.Passes); np++ {
			segData := eb.Data
			if np > 0 {
				if r := eb.Passes[np-1].Rate; r < len(segData) {
					segData = segData[:r]
				}
			}
			in := BlockIn{
				W: 32, H: 32, Band: dwt.HL,
				NumBitplanes: eb.NumBitplanes,
				Data:         segData,
				NPasses:      np,
				Modes:        m,
				SegEnds:      eb.SegmentEnds(nil, np),
			}
			if _, _, err := bd.DecodeBlock(&in, false); err != nil {
				t.Fatalf("%s: prefix of %d passes: %v", modeName(m), np, err)
			}
			bd.Release()
		}
		co.Release()
	}
}

// TestModesSegmentEnds checks the segment layout invariants: exact rates at
// terminated passes, non-decreasing ends, and the final end at the data end.
func TestModesSegmentEnds(t *testing.T) {
	co := NewCoder()
	for _, m := range modeCombos {
		co.Modes = m
		data := randBlock(32, 32, 20000, 0.5, 311)
		eb := co.Encode(data, 32, 32, 32, dwt.LH)
		np := len(eb.Passes)
		ends := eb.SegmentEnds(nil, np)
		if !m.Terminated() {
			if ends != nil {
				t.Fatalf("%s: unexpected segment ends %v", modeName(m), ends)
			}
			co.Release()
			continue
		}
		if len(ends) != m.NumSegments(np) {
			t.Fatalf("%s: %d segment ends, want %d", modeName(m), len(ends), m.NumSegments(np))
		}
		prev := 0
		for _, e := range ends {
			if e < prev || e > len(eb.Data) {
				t.Fatalf("%s: bad segment end %d (prev %d, data %d)", modeName(m), e, prev, len(eb.Data))
			}
			prev = e
		}
		if ends[len(ends)-1] != len(eb.Data) {
			t.Fatalf("%s: final segment end %d != data length %d", modeName(m), ends[len(ends)-1], len(eb.Data))
		}
		co.Release()
	}
}

// TestDecodeBlockRejectsBadSegmentLayout covers the strict/resilient split
// for inconsistent segment signalling.
func TestDecodeBlockRejectsBadSegmentLayout(t *testing.T) {
	co := NewCoder()
	co.Modes = Modes{Bypass: true, TermAll: true}
	data := randBlock(16, 16, 20000, 0.6, 5)
	eb := co.Encode(data, 16, 16, 16, dwt.LL)
	np := len(eb.Passes)
	good := eb.SegmentEnds(nil, np)
	bd := NewBlockDecoder()
	bad := [][]int{
		nil,      // missing layout entirely
		good[:1], // too few segments
		append(append([]int(nil), good...), len(eb.Data)), // too many
	}
	reversed := append([]int(nil), good...)
	if len(reversed) >= 2 {
		reversed[0], reversed[1] = reversed[1], reversed[0]
		bad = append(bad, reversed) // out of order
	}
	for i, ends := range bad {
		in := BlockIn{
			W: 16, H: 16, Band: dwt.LL,
			NumBitplanes: eb.NumBitplanes,
			Data:         eb.Data,
			NPasses:      np,
			Modes:        co.Modes,
			SegEnds:      ends,
		}
		if _, _, err := bd.DecodeBlock(&in, false); err == nil {
			t.Fatalf("case %d: strict decode accepted bad segment layout %v", i, ends)
		}
		out, st, err := bd.DecodeBlock(&in, true)
		if err != nil {
			t.Fatalf("case %d: resilient decode errored: %v", i, err)
		}
		if !st.Concealed || st.DroppedPasses != np {
			t.Fatalf("case %d: resilient stats %+v, want full concealment", i, st)
		}
		for _, v := range out {
			if v != 0 {
				t.Fatalf("case %d: concealed block not zeroed", i)
			}
		}
		bd.Release()
	}
}

// TestModesResilienceRoundTrip crosses the segment-producing modes with the
// segmentation-symbol checked decode: clean streams decode exactly and
// corrupted raw segments are concealed, not errored.
func TestModesResilienceRoundTrip(t *testing.T) {
	co := NewCoder()
	bd := NewBlockDecoder()
	for _, m := range []Modes{
		{Bypass: true, SegSym: true},
		{Bypass: true, TermAll: true, SegSym: true},
		{Bypass: true, TermAll: true, ResetCtx: true, Causal: true, SegSym: true},
	} {
		co.Modes = m
		data := randBlock(32, 32, 30000, 0.6, 999)
		eb := co.Encode(data, 32, 32, 32, dwt.HL)
		np := len(eb.Passes)
		in := BlockIn{
			W: 32, H: 32, Band: dwt.HL,
			NumBitplanes: eb.NumBitplanes,
			Data:         eb.Data,
			NPasses:      np,
			Modes:        m,
			SegEnds:      eb.SegmentEnds(nil, np),
		}
		got, st, err := bd.DecodeBlock(&in, true)
		if err != nil || st.Concealed {
			t.Fatalf("%s: clean decode err=%v stats=%+v", modeName(m), err, st)
		}
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("%s: sample %d got %d want %d", modeName(m), i, got[i], data[i])
			}
		}
		// Corrupt a byte inside a late segment; the checked decode must
		// conceal (keeping a clean prefix), never error.
		corrupt := append([]byte(nil), eb.Data...)
		corrupt[len(corrupt)*3/4] ^= 0x5A
		in.Data = corrupt
		_, st, err = bd.DecodeBlock(&in, true)
		if err != nil {
			t.Fatalf("%s: resilient decode of corrupt data errored: %v", modeName(m), err)
		}
		_ = st // corruption may or may not reach a checked symbol; no error is the contract
		bd.Release()
		co.Release()
	}
}

// TestCoderModesSteadyStateAllocs extends the zero-alloc discipline to the
// raw (bypass) coder path: warm encode+decode of bypass+TermAll blocks must
// stay as allocation-free as the default path.
func TestCoderModesSteadyStateAllocs(t *testing.T) {
	co := NewCoder()
	co.Modes = Modes{Bypass: true, TermAll: true}
	bd := NewBlockDecoder()
	data := randBlock(32, 32, 30000, 0.6, 77)
	var segEnds []int
	run := func() {
		co.Release()
		bd.Release()
		eb := co.Encode(data, 32, 32, 32, dwt.HH)
		segEnds = eb.SegmentEnds(segEnds[:0], len(eb.Passes))
		in := BlockIn{
			W: 32, H: 32, Band: dwt.HH,
			NumBitplanes: eb.NumBitplanes,
			Data:         eb.Data,
			NPasses:      len(eb.Passes),
			Modes:        co.Modes,
			SegEnds:      segEnds,
		}
		if _, _, err := bd.DecodeBlock(&in, false); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm arenas
	if allocs := testing.AllocsPerRun(20, run); allocs > 1 {
		t.Fatalf("raw coder path allocates %.1f/op, want <= 1", allocs)
	}
}

// TestBypassShrinksPassCost sanity-checks the mode's purpose at the t1
// level: bypassed blocks must not code dramatically worse than MQ (raw bits
// cost some rate) while exercising real segment structure.
func TestBypassShrinksPassCost(t *testing.T) {
	data := randBlock(64, 64, 30000, 0.7, 4242)
	mq := NewCoder()
	ebMQ := mq.Encode(data, 64, 64, 64, dwt.LL)
	by := NewCoder()
	by.Modes = Modes{Bypass: true}
	ebBy := by.Encode(data, 64, 64, 64, dwt.LL)
	if got, limit := len(ebBy.Data), len(ebMQ.Data)*13/10; got > limit {
		t.Fatalf("bypass data %d bytes vs MQ %d (limit %d)", got, len(ebMQ.Data), limit)
	}
	if n := ebBy.Modes.NumSegments(len(ebBy.Passes)); n < 3 {
		t.Fatalf("bypass block produced %d segments, want several", n)
	}
}

func ExampleModes_TermPass() {
	m := Modes{Bypass: true}
	for pass := 8; pass <= 13; pass++ {
		fmt.Printf("pass %d bypassed=%v terminated=%v\n", pass, m.passBypassed(pass), m.TermPass(pass))
	}
	// Output:
	// pass 8 bypassed=false terminated=false
	// pass 9 bypassed=false terminated=true
	// pass 10 bypassed=true terminated=false
	// pass 11 bypassed=true terminated=true
	// pass 12 bypassed=false terminated=true
	// pass 13 bypassed=true terminated=false
}
