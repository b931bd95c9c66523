package mq

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// encodeDecode round-trips a decision sequence through nctx contexts and
// reports whether all decisions decode identically.
func encodeDecode(t *testing.T, decisions []int, ctxOf func(i int) int, nctx int) {
	t.Helper()
	encCtx := make([]Context, nctx)
	enc := NewEncoder()
	for i, d := range decisions {
		enc.Encode(d, &encCtx[ctxOf(i)])
	}
	seg := enc.Flush()

	decCtx := make([]Context, nctx)
	dec := NewDecoder(seg)
	for i, want := range decisions {
		got := dec.Decode(&decCtx[ctxOf(i)])
		if got != want {
			t.Fatalf("decision %d: got %d want %d (segment %d bytes)", i, got, want, len(seg))
		}
	}
}

func TestRoundTripAllZero(t *testing.T) {
	d := make([]int, 1000)
	encodeDecode(t, d, func(int) int { return 0 }, 1)
}

func TestRoundTripAllOne(t *testing.T) {
	d := make([]int, 1000)
	for i := range d {
		d[i] = 1
	}
	encodeDecode(t, d, func(int) int { return 0 }, 1)
}

func TestRoundTripAlternating(t *testing.T) {
	d := make([]int, 1001)
	for i := range d {
		d[i] = i & 1
	}
	encodeDecode(t, d, func(int) int { return 0 }, 1)
}

func TestRoundTripRandomSingleContext(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(4000)
		p := rng.Float64()
		d := make([]int, n)
		for i := range d {
			if rng.Float64() < p {
				d[i] = 1
			}
		}
		encodeDecode(t, d, func(int) int { return 0 }, 1)
	}
}

func TestRoundTripManyContexts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(6000)
		nctx := 1 + rng.Intn(19)
		d := make([]int, n)
		cxs := make([]int, n)
		for i := range d {
			d[i] = rng.Intn(2)
			cxs[i] = rng.Intn(nctx)
		}
		encodeDecode(t, d, func(i int) int { return cxs[i] }, nctx)
	}
}

func TestRoundTripNonzeroInitialStates(t *testing.T) {
	// Tier-1 initializes the run-length context to state 3, the uniform
	// context to state 46, and context 0 to state 4.
	decisions := make([]int, 3000)
	rng := rand.New(rand.NewSource(3))
	for i := range decisions {
		decisions[i] = rng.Intn(2)
	}
	var ec, dc Context
	ec.Reset(46, 0)
	dc.Reset(46, 0)
	enc := NewEncoder()
	for _, d := range decisions {
		enc.Encode(d, &ec)
	}
	seg := enc.Flush()
	dec := NewDecoder(seg)
	for i, want := range decisions {
		if got := dec.Decode(&dc); got != want {
			t.Fatalf("decision %d: got %d want %d", i, got, want)
		}
	}
}

func TestEmptyFlushDecodable(t *testing.T) {
	enc := NewEncoder()
	seg := enc.Flush()
	// Decoding an empty/terminal segment must not panic and must return
	// stable decisions (all-MPS).
	var cx Context
	dec := NewDecoder(seg)
	for i := 0; i < 100; i++ {
		dec.Decode(&cx)
	}
}

// TestTruncationWithMargin checks the rate-tracking contract used by tier-1:
// the NumBytes value observed after encoding a prefix of decisions, plus a
// small margin, is enough bytes of the FINAL segment to decode that prefix.
func TestTruncationWithMargin(t *testing.T) {
	const margin = 5
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 500 + rng.Intn(3000)
		cut := rng.Intn(n)
		d := make([]int, n)
		for i := range d {
			d[i] = rng.Intn(2)
		}
		var ec Context
		enc := NewEncoder()
		var rateAtCut int
		for i, v := range d {
			if i == cut {
				rateAtCut = enc.NumBytes() + margin
			}
			enc.Encode(v, &ec)
		}
		seg := enc.Flush()
		if rateAtCut > len(seg) {
			rateAtCut = len(seg)
		}
		var dc Context
		dec := NewDecoder(seg[:rateAtCut])
		for i := 0; i < cut; i++ {
			if got := dec.Decode(&dc); got != d[i] {
				t.Fatalf("trial %d: truncated decode diverged at %d/%d (rate %d of %d)",
					trial, i, cut, rateAtCut, len(seg))
			}
		}
	}
}

func TestNoFFPairEmulatesMarker(t *testing.T) {
	// Stuffing must prevent any 0xFF byte being followed by a byte > 0x8F.
	rng := rand.New(rand.NewSource(5))
	var cx Context
	enc := NewEncoder()
	for i := 0; i < 100000; i++ {
		enc.Encode(rng.Intn(2), &cx)
	}
	seg := enc.Flush()
	for i := 0; i+1 < len(seg); i++ {
		if seg[i] == 0xFF && seg[i+1] > 0x8F {
			t.Fatalf("marker emulation at byte %d: FF %02X", i, seg[i+1])
		}
	}
}

func TestCompressionRatioSkewedSource(t *testing.T) {
	// A 99%-zeros source must compress far below 1 bit per symbol.
	rng := rand.New(rand.NewSource(6))
	var cx Context
	enc := NewEncoder()
	const n = 100000
	for i := 0; i < n; i++ {
		d := 0
		if rng.Float64() < 0.01 {
			d = 1
		}
		enc.Encode(d, &cx)
	}
	seg := enc.Flush()
	bits := float64(len(seg) * 8)
	if bits > 0.2*n {
		t.Fatalf("skewed source compressed to %.3f bpsímbolo, want < 0.2", bits/n)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []byte, nctxSeed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		nctx := 1 + int(nctxSeed%19)
		decisions := make([]int, 0, len(raw)*8)
		cxs := make([]int, 0, len(raw)*8)
		for i, b := range raw {
			for k := 0; k < 8; k++ {
				decisions = append(decisions, int(b>>k&1))
				cxs = append(cxs, (i*8+k)%nctx)
			}
		}
		encCtx := make([]Context, nctx)
		enc := NewEncoder()
		for i, d := range decisions {
			enc.Encode(d, &encCtx[cxs[i]])
		}
		seg := enc.Flush()
		decCtx := make([]Context, nctx)
		dec := NewDecoder(seg)
		for i, want := range decisions {
			if dec.Decode(&decCtx[cxs[i]]) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncoderReuse(t *testing.T) {
	enc := NewEncoder()
	var cx Context
	for i := 0; i < 100; i++ {
		enc.Encode(i&1, &cx)
	}
	first := append([]byte(nil), enc.Flush()...)

	enc.Init()
	cx.Reset(0, 0)
	for i := 0; i < 100; i++ {
		enc.Encode(i&1, &cx)
	}
	second := enc.Flush()
	if len(first) != len(second) {
		t.Fatalf("reused encoder produced %d bytes, fresh run %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("reused encoder output differs at byte %d", i)
		}
	}
}

// Fact (ii) of DESIGN.md §8 at its source: whatever is coded after a given
// point, the finished segment starts with the bytes Stable returned there. The
// last emitted byte is excluded for a reason — a carry can still increment it —
// and the test insists on seeing that happen, so a Stable that returned all
// NumBytes would fail here rather than in a golden hash.
func TestStableBytesSurviveCarry(t *testing.T) {
	carries := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(3000)
		p := rng.Float64() * 0.45
		bits, ctxs := make([]int, n), make([]int, n)
		for i := range bits {
			ctxs[i] = rng.Intn(5)
			if rng.Float64() < p {
				bits[i] = 1
			}
		}
		type snap struct {
			stable []byte
			last   byte // the emitted byte Stable leaves out
			has    bool
		}
		snaps := make([]snap, n)
		e := NewEncoder()
		cx := make([]Context, 5)
		for i, b := range bits {
			e.Encode(b, &cx[ctxs[i]])
			s := snap{stable: append([]byte(nil), e.Stable()...)}
			if len(s.stable) != max(e.NumBytes()-1, 0) {
				t.Fatalf("seed %d symbol %d: Stable has %d bytes, NumBytes is %d", seed, i, len(s.stable), e.NumBytes())
			}
			if e.NumBytes() > 0 {
				s.last, s.has = e.out[len(e.out)-1], true
			}
			snaps[i] = s
		}
		final := append([]byte(nil), e.Flush()...)
		for i, s := range snaps {
			if len(s.stable) > len(final) || !bytes.Equal(s.stable, final[:len(s.stable)]) {
				t.Fatalf("seed %d: stable bytes after symbol %d are not a prefix of the finished segment", seed, i)
			}
			if s.has && len(s.stable) < len(final) && final[len(s.stable)] != s.last {
				carries++
			}
		}
	}
	if carries == 0 {
		t.Fatal("no carry ever reached the last emitted byte; the test does not show why Stable excludes it")
	}
}
