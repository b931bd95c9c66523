package t1

import (
	"bytes"
	"testing"

	"pj2k/internal/bitio"
)

// refRawReader is the bit-serial raw-segment reader the bypassed passes used
// before they held their bits in a register window, kept as the oracle for
// rawReader: it loads a byte only when a read needs one, so its overrun
// counts exactly the past-the-end bytes a decode reads from.
type refRawReader struct {
	data    []byte
	pos     int
	acc     uint32
	nacc    int
	prev    byte
	overrun int
}

// ReadBit returns the next raw bit.
func (r *refRawReader) ReadBit() int {
	if r.nacc == 0 {
		lim := 8
		if r.prev == 0xFF {
			lim = 7
		}
		if r.pos < len(r.data) {
			r.prev = r.data[r.pos]
			r.pos++
		} else {
			r.overrun++
			r.prev = 0xFF
		}
		r.acc = uint32(r.prev)
		r.nacc = lim
	}
	r.nacc--
	return int(r.acc >> uint(r.nacc) & 1)
}

// checkRawScript runs one script of raw-segment operations through the
// windowed reader and writer, the way the bypassed passes use them, and
// through the bit-serial oracles (refRawReader.ReadBit and a
// bitio.StuffWriter fed by WriteBit). Each script byte is one operation,
// chosen by its low two bits:
//
//	0  a significance-pass sample: a bit, then a sign bit if the first is 1
//	   (decSigPropRaw / encSigPropRaw; bits 2 and 3 are the written bits)
//	1  a refinement-pass sample: one bit (decRefineRaw / encRefineRaw)
//	2  a pass boundary: the windows are given back, compared, and retaken
//	3  b>>2 refinement samples of 1-bits in a row (runs of 0xFF bytes, and
//	   reads far past the end of the segment)
//
// Read bits must equal the oracle's, and overrun must equal its count after
// every operation; the writer's Len must equal the oracle's at every pass
// boundary, and its bytes at the end.
func checkRawScript(t *testing.T, seg, script []byte) {
	t.Helper()
	var r rawReader
	r.Reset(seg)
	ref := refRawReader{data: seg}
	w, refW := bitio.NewStuffWriter(), bitio.NewStuffWriter()
	win, n := r.take()
	wwin, wn := w.Take()

	refine := func(op int, bit uint64) {
		if n == 0 {
			win, n = r.refill(win, n)
		}
		if got, want := int(win>>63), ref.ReadBit(); got != want {
			t.Fatalf("op %d: refinement bit %d, want %d", op, got, want)
		}
		win <<= 1
		n--
		if wn > 56 {
			wwin, wn = w.Drain(wwin, wn)
		}
		wwin |= bit << 63 >> (wn & 63)
		wn++
		refW.WriteBit(int(bit))
	}
	for op, b := range script {
		switch b & 3 {
		case 0:
			if n < 2 {
				win, n = r.refill(win, n)
			}
			sig := uint32(win >> 63)
			if want := ref.ReadBit(); int(sig) != want {
				t.Fatalf("op %d: significance bit %d, want %d", op, sig, want)
			}
			if sig == 1 {
				if got, want := int(win>>62&1), ref.ReadBit(); got != want {
					t.Fatalf("op %d: sign bit %d, want %d", op, got, want)
				}
			}
			win <<= (1 + sig) & 63
			n -= uint(1 + sig)

			bit, s := uint64(b>>2&1), uint64(b>>3&1)
			if wn > 56 {
				wwin, wn = w.Drain(wwin, wn)
			}
			wwin |= bit << 63 >> (wn & 63)
			wn++
			refW.WriteBit(int(bit))
			if bit == 1 {
				wwin |= s << 63 >> (wn & 63)
				wn++
				refW.WriteBit(int(s))
			}
		case 1:
			refine(op, uint64(b>>2&1))
		case 2:
			w.Give(wwin, wn)
			if got, want := w.Len(), refW.Len(); got != want {
				t.Fatalf("op %d: writer Len %d at a pass boundary, want %d", op, got, want)
			}
			wwin, wn = w.Take()
		case 3:
			for k := 0; k < int(b>>2); k++ {
				refine(op, 1)
			}
		}
		r.give(win, n)
		if got := r.overrun(); got != ref.overrun {
			t.Fatalf("op %d: overrun %d, want %d", op, got, ref.overrun)
		}
		win, n = r.take()
	}
	w.Give(wwin, wn)
	if got, want := w.Len(), refW.Len(); got != want {
		t.Fatalf("writer Len %d at the end, want %d", got, want)
	}
	if got, want := w.Bytes(), refW.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("writer bytes % x, want % x", got, want)
	}
}

// FuzzRawBypassMatchesReference checks the register windows of the bypassed
// passes against the bit-serial reader and writer for arbitrary segments and
// read/write scripts (checkRawScript): equal bits and overrun on decode, equal
// Len at every pass boundary and equal bytes on encode. The seeds are 0xFF
// runs, 0xFF followed by a byte with its top bit set (a stuffing violation
// whose top bit the reader drops), a final 0xFF (the first past-the-end byte
// then holds 7 bits), empty and one-byte segments, a real stuffed segment and
// truncations of it, and scripts that read far past the end.
func FuzzRawBypassMatchesReference(f *testing.F) {
	stuffed := bitio.NewStuffWriter()
	for i := 0; i < 400; i++ {
		stuffed.WriteBit(int(0x3FFFF7FF >> (i % 31) & 1)) // long 1-runs: 0xFF bytes and stuffing
	}
	whole := append([]byte(nil), stuffed.Bytes()...)
	mixed := []byte{0, 1, 5, 13, 2, 4, 8, 12, 9, 1, 0, 2, 0xFF, 2, 14, 0, 5, 2}
	long := bytes.Repeat([]byte{0xFF}, 8)
	sig := bytes.Repeat([]byte{0x0C, 0x00, 0x04}, 60)
	for _, s := range [][2][]byte{
		{{0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, mixed},
		{{0xFF, 0x80, 0xFF, 0xC3, 0x12, 0xFF, 0xFF}, mixed},
		{{0xFF, 0x80, 0xFF, 0xC3, 0x12, 0xFF, 0xFF}, sig},
		{{0x12, 0x34, 0xFF}, long},
		{{0xFF}, sig},
		{{}, mixed},
		{{}, long},
		{{0x00}, sig},
		{whole, sig},
		{whole[:len(whole)-1], long},
		{whole[:len(whole)/2], mixed},
		{whole[:3], bytes.Repeat([]byte{2, 0xFF, 1, 0}, 9)},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, seg, script []byte) {
		checkRawScript(t, seg, script)
	})
}
