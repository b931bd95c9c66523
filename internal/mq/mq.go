// Package mq implements the MQ binary arithmetic coder of JPEG2000
// (ISO/IEC 15444-1 Annex C), the entropy-coding engine used by the tier-1
// code-block coder: 16-bit probability estimates from the 47-entry Qe state
// table, renormalization-driven state transitions, byte output with 0xFF
// bit-stuffing so the bitstream cannot emulate markers.
//
// The coder emits and consumes exactly the bytes and decisions of the
// standard's software-convention flow charts, but no decision branches on the
// data: both sub-intervals are computed and masks choose the interval, the
// symbol and the next state; renormalization is one shift. The decoder's C
// register is 64 bits wide and reads ahead, so it refills every few symbols
// instead of testing for a byte on every shift. Read-ahead stops before any
// byte that follows 0xFF and never reads past the segment's end, which keeps
// every comparison, and Overrun, equal to the standard decoder's (DESIGN.md
// §9).
package mq

import "math/bits"

// qeEntry is one row of the Annex C probability state table.
type qeEntry struct {
	qe    uint32
	nmps  uint8
	nlps  uint8
	swtch bool
}

// qeTable is the standard 47-state table (Table C.2).
var qeTable = [47]qeEntry{
	{0x5601, 1, 1, true},
	{0x3401, 2, 6, false},
	{0x1801, 3, 9, false},
	{0x0AC1, 4, 12, false},
	{0x0521, 5, 29, false},
	{0x0221, 38, 33, false},
	{0x5601, 7, 6, true},
	{0x5401, 8, 14, false},
	{0x4801, 9, 14, false},
	{0x3801, 10, 14, false},
	{0x3001, 11, 17, false},
	{0x2401, 12, 18, false},
	{0x1C01, 13, 20, false},
	{0x1601, 29, 21, false},
	{0x5601, 15, 14, true},
	{0x5401, 16, 14, false},
	{0x5101, 17, 15, false},
	{0x4801, 18, 16, false},
	{0x3801, 19, 17, false},
	{0x3401, 20, 18, false},
	{0x3001, 21, 19, false},
	{0x2801, 22, 19, false},
	{0x2401, 23, 20, false},
	{0x2201, 24, 21, false},
	{0x1C01, 25, 22, false},
	{0x1801, 26, 23, false},
	{0x1601, 27, 24, false},
	{0x1401, 28, 25, false},
	{0x1201, 29, 26, false},
	{0x1101, 30, 27, false},
	{0x0AC1, 31, 28, false},
	{0x09C1, 32, 29, false},
	{0x08A1, 33, 30, false},
	{0x0521, 34, 31, false},
	{0x0441, 35, 32, false},
	{0x02A1, 36, 33, false},
	{0x0221, 37, 34, false},
	{0x0141, 38, 35, false},
	{0x0111, 39, 36, false},
	{0x0085, 40, 37, false},
	{0x0049, 41, 38, false},
	{0x0025, 42, 39, false},
	{0x0015, 43, 40, false},
	{0x0009, 44, 41, false},
	{0x0005, 45, 42, false},
	{0x0001, 45, 43, false},
	{0x5601, 46, 46, false},
}

// state is one row of the coding table, indexed by a Context's state byte:
// the row's Qe and the state byte a renormalizing decision moves to, next[0]
// after an LPS (the MPS switch folded in) and next[1] after an MPS.
type state struct {
	qe   uint16
	next [2]uint8
}

// states has 256 rows so a state byte indexes it without a bounds check; the
// 94 rows index<<1 | mps for the 47 Qe indices are used.
var states = func() (t [256]state) {
	for i, q := range qeTable {
		for mps := uint8(0); mps < 2; mps++ {
			lpsMPS := mps
			if q.swtch {
				lpsMPS ^= 1
			}
			t[i<<1|int(mps)] = state{uint16(q.qe), [2]uint8{q.nlps<<1 | lpsMPS, q.nmps<<1 | mps}}
		}
	}
	return t
}()

// Context holds the adaptive state of one coding context in one byte: the
// index into the Qe table shifted left once, or'd with the most-probable
// symbol.
type Context struct{ s uint8 }

// Reset restores the context to state (index, mps).
func (c *Context) Reset(index int, mps int) { c.s = uint8(index<<1 | mps&1) }

// decide is the decision both coders share: from the interval A and the
// context's row q, the interval after the MPS sub-interval, a = A - Qe, and
// whether the conditional exchange applies (a < Qe), as an all-ones mask.
func decide(A uint32, q *state) (a, qe, xchg uint32) {
	qe = uint32(q.qe)
	a = A - qe
	return a, qe, uint32(int32(a-qe) >> 31)
}

// move stores the context's next state: next[isMPS] when the new interval na
// needs renormalization, the unchanged state otherwise.
func move(cx *Context, q *state, isMPS, na uint32) {
	renorm := uint8(na>>15&1) - 1 // 0xFF iff na < 0x8000
	cx.s ^= (cx.s ^ q.next[isMPS]) & renorm
}

// Encoder is an MQ arithmetic encoder. The zero value is not ready for use;
// call Init (or NewEncoder). Every field is written on (nearly) every coded
// decision, so an Encoder belongs by value inside its owner's state — as
// t1.Coder holds it — never as a small heap object of its own, which the
// allocator would pack into the same cache line as another worker's.
type Encoder struct {
	c   uint32
	a   uint32
	ct  int
	out []byte // out[0] is a sentinel dropped by Flush
}

// Init resets the encoder for a fresh codeword segment (INITENC). The output
// buffer's capacity is retained, so a pooled encoder reaches a steady state
// with no per-segment allocations; any segment previously returned by Flush
// aliases that buffer and is invalidated by the next Encode.
func (e *Encoder) Init() {
	e.a = 0x8000
	e.c = 0
	e.ct = 12
	if e.out == nil {
		e.out = make([]byte, 1, 256)
	} else {
		e.out = e.out[:1]
	}
	e.out[0] = 0 // sentinel "B" byte; never 0xFF so ct starts at 12
}

// Encode codes decision d (0 or 1) in context cx, updating the context.
// CODEMPS and CODELPS are one flow: the coded symbol takes the upper
// sub-interval (A - Qe, with Qe added to C) exactly when it is the MPS and no
// conditional exchange applies, or the LPS and one does; otherwise it takes
// Qe. Masks make that choice, and the renormalization is one shift unless a
// byte falls due inside it.
func (e *Encoder) Encode(d int, cx *Context) {
	q := &states[cx.s]
	a, qe, xchg := decide(e.a, q)
	isMPS := uint32(d^int(cx.s)^1) & 1
	upper := -isMPS ^ xchg // all ones: take A - Qe
	na := qe ^ (a^qe)&upper
	e.c += qe & upper
	move(cx, q, isMPS, na)
	n := bits.LeadingZeros32(na) - 16
	e.a = na << (n & 15)
	for n >= e.ct {
		// RENORME reaches CT = 0 inside this shift: emit the byte there.
		e.c <<= e.ct & 31
		n -= e.ct
		e.byteOut()
	}
	e.c <<= n & 31
	e.ct -= n
}

// byteOut is BYTEOUT with bit stuffing and carry resolution.
func (e *Encoder) byteOut() {
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
	// Propagate carry into the previous byte; it cannot cascade because a
	// 0xFF previous byte takes the stuffing branch above.
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

// NumBytes returns the number of codeword bytes that have been emitted so
// far, excluding bits still pending in the C register. Used with a safety
// margin for rate tracking at coding-pass boundaries.
func (e *Encoder) NumBytes() int { return len(e.out) - 1 }

// Stable returns the emitted codeword bytes that no later Encode or Flush can
// change: all of them except the last, which byteOut may still increment when
// a carry resolves (the carry cannot cascade past it — a 0xFF byte takes the
// stuffing branch). Whatever is coded next, the finished segment starts with
// exactly these bytes. The slice aliases the encoder's buffer.
func (e *Encoder) Stable() []byte {
	if len(e.out) < 2 {
		return nil
	}
	return e.out[1 : len(e.out)-1]
}

// Flush terminates the codeword (FLUSH with SETBITS) and returns the final
// segment. Trailing 0xFF bytes are dropped as the standard permits: the
// decoder synthesizes 1-bits past the end of the segment. The returned slice
// aliases the encoder's internal buffer — callers reusing the encoder via
// Init must copy it first.
func (e *Encoder) Flush() []byte {
	// SETBITS
	tempC := e.c + e.a - 1
	e.c |= 0xFFFF
	if e.c >= tempC {
		e.c -= 0x8000
	}
	e.c <<= uint(e.ct)
	e.byteOut()
	e.c <<= uint(e.ct)
	e.byteOut()
	out := e.out[1:] // drop sentinel
	for len(out) > 0 && out[len(out)-1] == 0xFF {
		out = out[:len(out)-1]
	}
	return out
}

// Decoder is an MQ arithmetic decoder. Reads past the end of the segment
// behave as if 0xFF bytes followed, per the standard, so truncated segments
// decode without error.
//
// C is the standard's 32-bit register shifted up to the top of 64 bits: its
// 16 active bits (Chigh) sit at bits 48..63 and ct counts the input bits
// buffered below them, up to 48 — the standard's CT plus the bytes read
// ahead.
type Decoder struct {
	data    []byte
	bp      int // index of the last byte read; data[bp+1] is next
	c       uint64
	a       uint32
	ct      int
	overrun int
}

// Reset re-initializes the decoder over a new segment (INITDEC), allowing one
// Decoder to be pooled across many code-blocks without reallocation.
func (d *Decoder) Reset(data []byte) {
	d.data = data
	d.bp = 0
	d.ct = 0
	d.overrun = 0
	d.c = uint64(d.byteAt(0)) << 48
	d.byteIn()
	d.c <<= 7
	d.ct -= 7
	d.a = 0x8000
	d.readAhead()
}

func (d *Decoder) byteAt(i int) byte {
	if i < len(d.data) {
		return d.data[i]
	}
	return 0xFF
}

// byteIn is BYTEIN with unstuffing and end-of-segment synthesis: it appends
// the next input byte below the ct bits already buffered. Only reads the
// standard decoder makes come here, so only they count toward Overrun.
func (d *Decoder) byteIn() {
	if d.bp >= len(d.data) {
		d.overrun++
	}
	if d.byteAt(d.bp) != 0xFF {
		d.bp++
		d.c += uint64(d.byteAt(d.bp)) << (40 - d.ct)
		d.ct += 8
	} else if d.byteAt(d.bp+1) > 0x8F {
		d.c += 0xFF << (40 - d.ct) // a marker or the end: feed 1-bits
		d.ct += 8
	} else {
		d.bp++
		d.c += uint64(d.byteAt(d.bp)) << (41 - d.ct) // 7 bits and a carry
		d.ct += 7
	}
}

// readAhead buffers whole bytes while 8 more bits fit in the register. It stops
// before a byte that follows 0xFF, whose stuffed carry would reach Chigh
// earlier than the standard decoder adds it, and after the segment's last
// byte, so past-the-end reads are made only by byteIn, on demand. Every byte
// it adds lands on zero bits and cannot carry, so adding it early changes no
// comparison.
func (d *Decoder) readAhead() {
	for d.ct <= 40 && d.bp+1 < len(d.data) && d.data[d.bp] != 0xFF {
		d.bp++
		d.c |= uint64(d.data[d.bp]) << (40 - d.ct)
		d.ct += 8
	}
}

// Overrun returns the number of synthetic byte reads the standard decoder
// would have performed past the end of the segment since Reset; read-ahead
// never reads past the end, so it adds none. Clean decodes read at most a
// couple of synthesized bytes (the flush bytes the encoder drops); a large
// overrun means the decoder was driven far past its data — the "MQ decoder
// ran off its segment" corruption signal resilient tier-1 decoding keys on.
func (d *Decoder) Overrun() int { return d.overrun }

// Decode returns the next decision in context cx, updating the context. The
// MPS and LPS exchanges are one flow: the decision is an MPS exactly when
// Chigh >= Qe (the upper sub-interval) disagrees with the conditional
// exchange (A - Qe < Qe). Masks choose the interval and the next state, and
// the renormalization is one shift.
func (d *Decoder) Decode(cx *Context) int {
	q := &states[cx.s]
	a, qe, xchg := decide(d.a, q)
	lower := uint32(int32(uint32(d.c>>48)-qe) >> 31) // all ones iff Chigh < Qe
	na := a ^ (a^qe)&lower
	d.c -= uint64(qe&^lower) << 48
	lps := (lower ^ xchg) & 1
	bit := int(uint32(cx.s)^lps) & 1
	move(cx, q, lps^1, na)
	n := bits.LeadingZeros32(na) - 16
	if n > d.ct {
		d.fill(n)
	}
	d.c <<= n & 63
	d.ct -= n
	d.a = na << (n & 15)
	return bit
}

// fill buffers at least n bits: first the bytes the standard decoder reads
// during this renormalization, then whatever read-ahead allows.
func (d *Decoder) fill(n int) {
	for d.ct < n {
		d.byteIn()
	}
	d.readAhead()
}
