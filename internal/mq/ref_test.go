package mq

import (
	"bytes"
	"math/rand"
	"testing"
)

// The reference coder: the bit-serial MPS/LPS flow charts of Annex C, one
// shift per renormalization step and one BYTEIN test per shift, as the
// package coded them before the decisions went branch-free. It is the oracle
// the production coder must match decision for decision, byte for byte and
// Overrun for Overrun, on clean and corrupt input alike.

type refContext struct{ index, mps uint8 }

type refEncoder struct {
	c   uint32
	a   uint32
	ct  int
	out []byte // out[0] is a sentinel dropped by Flush
}

func (e *refEncoder) Init() {
	e.a, e.c, e.ct = 0x8000, 0, 12
	e.out = append(e.out[:0], 0)
}

func (e *refEncoder) Encode(d int, cx *refContext) {
	q := &qeTable[cx.index]
	a := e.a - q.qe
	if uint8(d) == cx.mps {
		if a&0x8000 != 0 {
			e.a = a
			e.c += q.qe
			return
		}
		if a < q.qe {
			a = q.qe
		} else {
			e.c += q.qe
		}
		cx.index = q.nmps
		e.a = a
		e.renorm()
		return
	}
	if a < q.qe {
		e.c += q.qe
	} else {
		a = q.qe
	}
	if q.swtch {
		cx.mps = 1 - cx.mps
	}
	cx.index = q.nlps
	e.a = a
	e.renorm()
}

func (e *refEncoder) renorm() {
	for {
		e.a <<= 1
		e.c <<= 1
		e.ct--
		if e.ct == 0 {
			e.byteOut()
		}
		if e.a&0x8000 != 0 {
			return
		}
	}
}

func (e *refEncoder) byteOut() {
	last := len(e.out) - 1
	if e.out[last] == 0xFF {
		e.out = append(e.out, byte(e.c>>20))
		e.c &= 0xFFFFF
		e.ct = 7
		return
	}
	if e.c < 0x8000000 {
		e.out = append(e.out, byte(e.c>>19))
		e.c &= 0x7FFFF
		e.ct = 8
		return
	}
	e.out[last]++
	if e.out[last] == 0xFF {
		e.c &= 0x7FFFFFF
		e.out = append(e.out, byte(e.c>>20))
		e.c &= 0xFFFFF
		e.ct = 7
	} else {
		e.out = append(e.out, byte(e.c>>19))
		e.c &= 0x7FFFF
		e.ct = 8
	}
}

func (e *refEncoder) NumBytes() int { return len(e.out) - 1 }

func (e *refEncoder) Stable() []byte {
	if len(e.out) < 2 {
		return nil
	}
	return e.out[1 : len(e.out)-1]
}

func (e *refEncoder) Flush() []byte {
	tempC := e.c + e.a - 1
	e.c |= 0xFFFF
	if e.c >= tempC {
		e.c -= 0x8000
	}
	e.c <<= uint(e.ct)
	e.byteOut()
	e.c <<= uint(e.ct)
	e.byteOut()
	out := e.out[1:]
	for len(out) > 0 && out[len(out)-1] == 0xFF {
		out = out[:len(out)-1]
	}
	return out
}

type refDecoder struct {
	data    []byte
	bp      int
	c       uint32
	a       uint32
	ct      int
	overrun int
}

func (d *refDecoder) Reset(data []byte) {
	d.data, d.bp, d.ct, d.overrun = data, 0, 0, 0
	d.c = uint32(d.byteAt(0)) << 16
	d.byteIn()
	d.c <<= 7
	d.ct -= 7
	d.a = 0x8000
}

func (d *refDecoder) byteAt(i int) byte {
	if i < len(d.data) {
		return d.data[i]
	}
	return 0xFF
}

func (d *refDecoder) byteIn() {
	if d.bp >= len(d.data) {
		d.overrun++
	}
	if d.byteAt(d.bp) == 0xFF {
		if d.byteAt(d.bp+1) > 0x8F {
			d.c += 0xFF00
			d.ct = 8
		} else {
			d.bp++
			d.c += uint32(d.byteAt(d.bp)) << 9
			d.ct = 7
		}
	} else {
		d.bp++
		d.c += uint32(d.byteAt(d.bp)) << 8
		d.ct = 8
	}
}

func (d *refDecoder) Decode(cx *refContext) int {
	q := &qeTable[cx.index]
	a := d.a - q.qe
	if (d.c >> 16) >= q.qe {
		d.c -= q.qe << 16
		if a&0x8000 != 0 {
			d.a = a
			return int(cx.mps)
		}
		var bit uint8
		if a < q.qe {
			bit = 1 - cx.mps
			if q.swtch {
				cx.mps = 1 - cx.mps
			}
			cx.index = q.nlps
		} else {
			bit = cx.mps
			cx.index = q.nmps
		}
		d.a = a
		d.renorm()
		return int(bit)
	}
	var bit uint8
	if a < q.qe {
		bit = cx.mps
		cx.index = q.nmps
	} else {
		bit = 1 - cx.mps
		if q.swtch {
			cx.mps = 1 - cx.mps
		}
		cx.index = q.nlps
	}
	d.a = q.qe
	d.renorm()
	return int(bit)
}

func (d *refDecoder) renorm() {
	for {
		if d.ct == 0 {
			d.byteIn()
		}
		d.a <<= 1
		d.c <<= 1
		d.ct--
		if d.a&0x8000 != 0 {
			return
		}
	}
}

func (d *refDecoder) Overrun() int { return d.overrun }

// refNctx is the number of contexts the differential checks drive, tier-1's.
const refNctx = 19

// scriptContexts gives both coders the same initial states: context k starts
// where the script's k-th byte says (any of the 47 indices, either MPS), or at
// a spread of states when the script is shorter, so long renormalizations
// (Qe = 0x0001) and the switching rows are reached without a long warm-up.
func scriptContexts(script []byte) (cx [refNctx]Context, ref [refNctx]refContext) {
	for k := range cx {
		s := byte(k*11 + k>>1)
		if k < len(script) {
			s = script[k]
		}
		idx, mps := int((s>>1)%47), int(s>>7)
		cx[k].Reset(idx, mps)
		ref[k] = refContext{uint8(idx), uint8(mps)}
	}
	return cx, ref
}

// sameState reports whether a context and its reference twin hold the same
// Qe index and MPS.
func sameState(c Context, r refContext) bool {
	return c.s == r.index<<1|r.mps
}

// checkDecodeMatches decodes data with both decoders, choosing each
// decision's context from the script, well past the segment's end, and fails
// on the first decision whose symbol, context state or Overrun differs.
func checkDecodeMatches(t *testing.T, data, script []byte) {
	t.Helper()
	cx, rcx := scriptContexts(script)
	var d Decoder
	var r refDecoder
	d.Reset(data)
	r.Reset(data)
	if d.Overrun() != r.Overrun() {
		t.Fatalf("after Reset: Overrun %d, reference %d", d.Overrun(), r.Overrun())
	}
	n := 16*len(data) + 64
	for i := 0; i < n; i++ {
		k := 0
		if len(script) > 0 {
			k = int(script[i%len(script)]) % refNctx
		}
		got, want := d.Decode(&cx[k]), r.Decode(&rcx[k])
		if got != want || !sameState(cx[k], rcx[k]) || d.Overrun() != r.Overrun() {
			t.Fatalf("decision %d (context %d) over % x: symbol %d, state %d, Overrun %d; reference %d, %d/%d, %d",
				i, k, data, got, cx[k].s, d.Overrun(), want, rcx[k].index, rcx[k].mps, r.Overrun())
		}
	}
}

// checkEncodeMatches codes the script with both encoders (each byte one
// decision: bit 0 the symbol, the rest the context) and fails unless NumBytes,
// Stable and the context state agree after every decision and the flushed
// segments are equal. Equality with the reference is the whole claim;
// decodability is the round-trip tests' in mq_test.go.
func checkEncodeMatches(t *testing.T, script []byte) {
	t.Helper()
	cx, rcx := scriptContexts(script)
	var e Encoder
	var r refEncoder
	e.Init()
	r.Init()
	for i, b := range script {
		k := int(b>>1) % refNctx
		e.Encode(int(b&1), &cx[k])
		r.Encode(int(b&1), &rcx[k])
		if e.NumBytes() != r.NumBytes() || !bytes.Equal(e.Stable(), r.Stable()) || !sameState(cx[k], rcx[k]) {
			t.Fatalf("decision %d: NumBytes %d, stable % x; reference %d, % x", i, e.NumBytes(), e.Stable(), r.NumBytes(), r.Stable())
		}
	}
	if seg, want := e.Flush(), r.Flush(); !bytes.Equal(seg, want) {
		t.Fatalf("flushed % x, reference % x", seg, want)
	}
}

// encodedSegment codes n seeded decisions over the 19 contexts with
// per-context skews, as tier-1 does, so it holds carries and stuffed bytes.
func encodedSegment(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var cx [refNctx]Context
	var e Encoder
	e.Init()
	for i := 0; i < n; i++ {
		k := rng.Intn(refNctx)
		d := 0
		if rng.Float64() < 0.02+0.02*float64(k) {
			d = 1
		}
		e.Encode(d, &cx[k])
	}
	return append([]byte(nil), e.Flush()...)
}

// FuzzDecodeMatchesReference drives both decoders over arbitrary bytes with
// arbitrary context sequences. The seeds cover the byte patterns where a
// read-ahead decoder could part from the standard one: a stuffed carry
// (0xFF then 0x80-0x8F), a marker (0xFF then 0x90 or more), runs of 0xFF, and
// empty, one-byte and 0xFF-terminated segments.
func FuzzDecodeMatchesReference(f *testing.F) {
	script := []byte{0, 7, 200, 45, 90, 133, 18, 3, 255, 128, 64, 91}
	for _, data := range [][]byte{
		nil,
		{0x00},
		{0xFF},
		{0x7F},
		{0x12, 0xFF},
		{0xFF, 0x80},
		{0xFF, 0x8F, 0x00, 0x11},
		{0x45, 0xFF, 0x80, 0xFF, 0x8F, 0x3C, 0xFF, 0x85},
		{0x45, 0x12, 0x33, 0x77, 0xFF, 0x8F, 0xFF, 0x8F, 0xFF, 0x80, 0x00},
		{0xFF, 0x90, 0x00, 0x00},
		{0x21, 0x55, 0xA0, 0xFF, 0x91, 0x55},
		{0x21, 0x55, 0xA0, 0x17, 0xFF, 0xFF, 0xFF, 0xD9},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		{0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xFF},
		encodedSegment(1, 3000),
	} {
		f.Add(data, script)
		f.Add(data, []byte{45, 45, 45, 173, 0})
	}
	// Stuffed carries that land next to a comparison: a decoder that read the
	// byte after 0xFF ahead, even unstuffed correctly, decides these
	// differently from the standard one.
	f.Add([]byte{0xFF, 0x8B, 0xFF, 0x8D}, []byte{0xF4})
	f.Add([]byte{0xFF, 0x84, 0xFF, 0x80, 0x67, 0xFF}, []byte{0x49})
	f.Add([]byte{0x14, 0xFF, 0x8B, 0x87, 0xFA, 0xBD}, []byte{0xE0})
	f.Fuzz(checkDecodeMatches)
}

// FuzzEncodeMatchesReference codes arbitrary decision and context sequences
// with both encoders. The seeds include constant and alternating decisions on
// one context and a skewed multi-context stream whose carries reach the last
// emitted byte.
func FuzzEncodeMatchesReference(f *testing.F) {
	zeros, ones, alt := make([]byte, 1000), make([]byte, 1000), make([]byte, 1001)
	for i := range ones {
		ones[i] = 1
	}
	for i := range alt {
		alt[i] = byte(i & 1)
	}
	rng := rand.New(rand.NewSource(7))
	skewed := make([]byte, 4000)
	for i := range skewed {
		k := rng.Intn(refNctx)
		skewed[i] = byte(k << 1)
		if rng.Intn(10) < k%4 {
			skewed[i] |= 1
		}
	}
	for _, s := range [][]byte{nil, {1}, zeros, ones, alt, skewed, encodedSegment(2, 500)} {
		f.Add(s)
	}
	f.Fuzz(checkEncodeMatches)
}

// TestDecodeMatchesReferenceRandom runs the decode check over random corrupt
// segments drawn to be rich in 0xFF, stuffed carries and markers, with random
// context scripts; the fuzzer's seeds only cover hand-picked patterns.
func TestDecodeMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50000; trial++ {
		data := make([]byte, rng.Intn(8))
		for i := range data {
			switch rng.Intn(4) {
			case 0:
				data[i] = 0xFF
			case 1:
				data[i] = byte(0x80 + rng.Intn(16))
			default:
				data[i] = byte(rng.Intn(256))
			}
		}
		script := make([]byte, 1+rng.Intn(3))
		rng.Read(script)
		checkDecodeMatches(t, data, script)
	}
}

// TestEncodeMatchesReferenceRandom runs the encode check over random skewed
// scripts.
func TestEncodeMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		script := make([]byte, rng.Intn(3000))
		p := rng.Intn(8)
		for i := range script {
			script[i] = byte(rng.Intn(256)) &^ 1
			if rng.Intn(16) < p {
				script[i] |= 1
			}
		}
		checkEncodeMatches(t, script)
	}
}
