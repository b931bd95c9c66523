package bitio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5000)
		bits := make([]int, n)
		for i := range bits {
			bits[i] = rng.Intn(2)
		}
		w := NewWriter()
		for _, b := range bits {
			w.WriteBit(b)
		}
		r := NewReader(w.Bytes())
		for i, want := range bits {
			got, err := r.ReadBit()
			if err != nil {
				t.Fatalf("bit %d: %v", i, err)
			}
			if got != want {
				t.Fatalf("bit %d: got %d want %d", i, got, want)
			}
		}
	}
}

func TestWriteBitsReadBits(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0xDEADBEEF, 32)
	w.WriteBits(0x5, 3)
	w.WriteBits(0x0, 0)
	w.WriteBits(0x1, 1)
	r := NewReader(w.Bytes())
	if v, _ := r.ReadBits(32); v != 0xDEADBEEF {
		t.Fatalf("got %#x", v)
	}
	if v, _ := r.ReadBits(3); v != 5 {
		t.Fatalf("got %d", v)
	}
	if v, _ := r.ReadBits(1); v != 1 {
		t.Fatalf("got %d", v)
	}
}

func TestReaderOutOfBits(t *testing.T) {
	r := NewReader([]byte{0xAB})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err != ErrOutOfBits {
		t.Fatalf("want ErrOutOfBits, got %v", err)
	}
}

func TestAlignAndBitLen(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0x3, 3)
	if w.BitLen() != 3 {
		t.Fatalf("BitLen = %d", w.BitLen())
	}
	w.align()
	if w.BitLen() != 8 {
		t.Fatalf("BitLen after align = %d", w.BitLen())
	}
	if got := w.Bytes(); !bytes.Equal(got, []byte{0x60}) {
		t.Fatalf("bytes = %x", got)
	}
}

func TestStuffWriterNeverEmitsFFThenHighBit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		w := NewStuffWriter()
		n := 1 + rng.Intn(4000)
		for i := 0; i < n; i++ {
			// Bias toward ones to force 0xFF bytes.
			b := 1
			if rng.Float64() < 0.1 {
				b = 0
			}
			w.WriteBit(b)
		}
		out := w.Bytes()
		for i := 0; i+1 < len(out); i++ {
			if out[i] == 0xFF && out[i+1]&0x80 != 0 {
				t.Fatalf("trial %d: stuffing violated at byte %d: FF %02X", trial, i, out[i+1])
			}
		}
		if len(out) > 0 && out[len(out)-1] == 0xFF {
			t.Fatalf("trial %d: header ends in 0xFF", trial)
		}
	}
}

func TestStuffRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5000)
		bits := make([]int, n)
		for i := range bits {
			b := 1
			if rng.Float64() < 0.3 {
				b = 0
			}
			bits[i] = b
		}
		w := NewStuffWriter()
		for _, b := range bits {
			w.WriteBit(b)
		}
		out := w.Bytes()
		r := NewStuffReader(out)
		for i, want := range bits {
			got, err := r.ReadBit()
			if err != nil {
				t.Fatalf("trial %d bit %d: %v", trial, i, err)
			}
			if got != want {
				t.Fatalf("trial %d bit %d: got %d want %d", trial, i, got, want)
			}
		}
		consumed, err := r.Terminate()
		if err != nil {
			t.Fatalf("terminate: %v", err)
		}
		if consumed != len(out) {
			t.Fatalf("trial %d: terminate consumed %d of %d bytes", trial, consumed, len(out))
		}
	}
}

func TestStuffRoundTripWithTrailingData(t *testing.T) {
	// The stuffed header is typically followed by packet body bytes; the
	// reader must stop exactly at the header boundary.
	w := NewStuffWriter()
	bits := []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1} // crosses a stuffed FF
	for _, b := range bits {
		w.WriteBit(b)
	}
	hdr := w.Bytes()
	full := append(append([]byte(nil), hdr...), 0xAA, 0xBB)
	r := NewStuffReader(full)
	for i, want := range bits {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
	consumed, err := r.Terminate()
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(hdr) {
		t.Fatalf("consumed %d, header is %d bytes", consumed, len(hdr))
	}
}

func TestQuickStuffRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		w := NewStuffWriter()
		for _, b := range raw {
			for k := 7; k >= 0; k-- {
				w.WriteBit(int(b >> k & 1))
			}
		}
		out := w.Bytes()
		r := NewStuffReader(out)
		for _, b := range raw {
			for k := 7; k >= 0; k-- {
				got, err := r.ReadBit()
				if err != nil || got != int(b>>k&1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
