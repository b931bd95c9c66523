// Package bitio provides MSB-first bit readers and writers, including the
// JPEG2000 packet-header variant that stuffs a zero bit after every 0xFF byte
// so packet headers cannot emulate codestream markers.
package bitio

import (
	"errors"
	"io"
)

// Writer writes bits MSB-first into an in-memory buffer.
type Writer struct {
	buf  []byte
	acc  uint8
	nacc uint8 // bits currently in acc (0..7)
}

// NewWriter returns an empty bit writer.
func NewWriter() *Writer { return &Writer{} }

// WriteBit appends a single bit (0 or 1).
func (w *Writer) WriteBit(b int) {
	w.acc = w.acc<<1 | uint8(b&1)
	w.nacc++
	if w.nacc == 8 {
		w.buf = append(w.buf, w.acc)
		w.acc, w.nacc = 0, 0
	}
}

// WriteBits appends the low n bits of v, MSB-first. n may be 0..32.
func (w *Writer) WriteBits(v uint32, n int) {
	for i := n - 1; i >= 0; i-- {
		w.WriteBit(int(v >> uint(i) & 1))
	}
}

// align pads with zero bits to the next byte boundary.
func (w *Writer) align() {
	for w.nacc != 0 {
		w.WriteBit(0)
	}
}

// Bytes aligns the writer and returns the accumulated bytes.
func (w *Writer) Bytes() []byte {
	w.align()
	return w.buf
}

// BitLen returns the number of bits written so far.
func (w *Writer) BitLen() int { return len(w.buf)*8 + int(w.nacc) }

// Reader reads bits MSB-first from a byte slice.
type Reader struct {
	buf  []byte
	pos  int
	acc  uint8
	nacc uint8
}

// NewReader returns a bit reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// errOutOfBits is returned when a read goes past the end of the buffer.
var errOutOfBits = errors.New("bitio: out of bits")

// ReadBit returns the next bit.
func (r *Reader) ReadBit() (int, error) {
	if r.nacc == 0 {
		if r.pos >= len(r.buf) {
			return 0, errOutOfBits
		}
		r.acc = r.buf[r.pos]
		r.pos++
		r.nacc = 8
	}
	r.nacc--
	return int(r.acc >> r.nacc & 1), nil
}

// ReadBits reads n bits MSB-first.
func (r *Reader) ReadBits(n int) (uint32, error) {
	var v uint32
	for i := 0; i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint32(b)
	}
	return v, nil
}

// StuffWriter writes packet-header bits with JPEG2000 bit stuffing: after
// emitting a 0xFF byte, only seven bits are placed in the following byte (its
// MSB is a stuffed 0). Flush terminates the header, stuffing a full zero byte
// if the final byte was 0xFF. The zero value is empty but not ready: call Reset
// before the first write (NewStuffWriter does). Like mq.Encoder it is written
// on every bit, so a per-worker one is embedded by value in its owner.
type StuffWriter struct {
	buf  []byte
	acc  uint16
	nacc uint8 // bits currently in acc
	lim  uint8 // bits in current byte: 8, or 7 after a 0xFF
}

// NewStuffWriter returns an empty stuffing bit writer.
func NewStuffWriter() *StuffWriter { return &StuffWriter{lim: 8} }

// Reset empties the writer, retaining the buffer capacity for reuse.
// Previously returned Bytes views are invalidated by subsequent writes.
func (w *StuffWriter) Reset() {
	w.buf = w.buf[:0]
	w.acc, w.nacc, w.lim = 0, 0, 8
}

// WriteBit appends one bit with stuffing.
func (w *StuffWriter) WriteBit(b int) {
	w.acc = w.acc<<1 | uint16(b&1)
	w.nacc++
	if w.nacc == w.lim {
		by := byte(w.acc)
		w.buf = append(w.buf, by)
		w.acc, w.nacc = 0, 0
		if by == 0xFF {
			w.lim = 7
		} else {
			w.lim = 8
		}
	}
}

// WriteBits appends the low n bits of v, MSB-first.
func (w *StuffWriter) WriteBits(v uint32, n int) {
	for i := n - 1; i >= 0; i-- {
		w.WriteBit(int(v >> uint(i) & 1))
	}
}

// Take hands the pending bits to a loop that writes many bits and wants
// them in a register: a 64-bit window, MSB first, holding n bits with zeros
// below them. The loop ORs each bit in below the last, calls Drain before the
// window can overflow, and ends with Give; until then no method but Drain
// may be called.
func (w *StuffWriter) Take() (win uint64, n uint) {
	win, n = uint64(w.acc)<<(64-w.nacc), uint(w.nacc)
	w.acc, w.nacc = 0, 0
	return win, n
}

// Drain appends every whole byte at the top of the window, stuffed as
// WriteBit would, and returns the rest (fewer than 8 bits). It stays out of
// line so that a caller's bit loop keeps its registers.
//
//go:noinline
func (w *StuffWriter) Drain(win uint64, n uint) (uint64, uint) {
	for n >= uint(w.lim) {
		by := byte(win >> (64 - w.lim))
		w.buf = append(w.buf, by)
		win <<= w.lim
		n -= uint(w.lim)
		if by == 0xFF {
			w.lim = 7
		} else {
			w.lim = 8
		}
	}
	return win, n
}

// Give ends a Take: the window's whole bytes are appended and the rest stay
// pending, so the writer is in the state the same bits written by WriteBit
// would have left it.
func (w *StuffWriter) Give(win uint64, n uint) {
	win, n = w.Drain(win, n)
	w.acc, w.nacc = uint16(win>>(64-n)), uint8(n)
}

// Len returns the number of bytes Bytes would return before its trailing
// 0xFF padding rule: whole bytes emitted plus one for any pending bits. Rate
// accounting for raw (bypass) codeword segments reads it mid-stream.
func (w *StuffWriter) Len() int {
	n := len(w.buf)
	if w.nacc > 0 {
		n++
	}
	return n
}

// Bytes terminates the header (zero padding; a trailing 0xFF is followed by a
// stuffed 0x00 per the standard) and returns the bytes.
func (w *StuffWriter) Bytes() []byte {
	for w.nacc != 0 {
		w.WriteBit(0)
	}
	if len(w.buf) > 0 && w.buf[len(w.buf)-1] == 0xFF {
		w.buf = append(w.buf, 0x00)
	}
	return w.buf
}

// StuffReader mirrors StuffWriter for decoding packet headers.
type StuffReader struct {
	buf  []byte
	pos  int
	acc  uint8
	nacc uint8
	prev byte
}

// Reset re-aims the reader at a new buffer, allowing one StuffReader to be
// pooled across the many packet headers of a tile decode.
func (r *StuffReader) Reset(buf []byte) { *r = StuffReader{buf: buf} }

// ReadBit returns the next header bit, honouring stuffed bits.
func (r *StuffReader) ReadBit() (int, error) {
	if r.nacc == 0 {
		if r.pos >= len(r.buf) {
			return 0, errOutOfBits
		}
		b := r.buf[r.pos]
		r.pos++
		if r.prev == 0xFF {
			// MSB of this byte is a stuffed zero.
			r.acc = b & 0x7F
			r.nacc = 7
		} else {
			r.acc = b
			r.nacc = 8
		}
		r.prev = b
	}
	r.nacc--
	return int(r.acc >> r.nacc & 1), nil
}

// ReadBits reads n bits MSB-first.
func (r *StuffReader) ReadBits(n int) (uint32, error) {
	var v uint32
	for i := 0; i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint32(b)
	}
	return v, nil
}

// Terminate consumes the header's padding, mirroring StuffWriter.Bytes: it
// byte-aligns and, if the final consumed byte was 0xFF, also consumes the
// stuffed 0x00. Returns the number of bytes consumed in total.
func (r *StuffReader) Terminate() (int, error) {
	r.nacc = 0
	if r.prev == 0xFF {
		if r.pos >= len(r.buf) {
			return 0, io.ErrUnexpectedEOF
		}
		r.prev = r.buf[r.pos]
		r.pos++
	}
	return r.pos, nil
}
