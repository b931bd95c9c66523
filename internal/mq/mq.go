// Package mq implements the MQ binary arithmetic coder of JPEG2000
// (ISO/IEC 15444-1 Annex C), the entropy-coding engine used by the tier-1
// code-block coder. The encoder and decoder follow the software-convention
// flow charts of the standard: 16-bit probability estimates from the 47-entry
// Qe state table, renormalization-driven state transitions, byte output with
// 0xFF bit-stuffing so the bitstream cannot emulate markers.
package mq

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

// Context holds the adaptive state of one coding context: the index into the
// Qe table and the current most-probable symbol.
type Context struct {
	index uint8
	mps   uint8
}

// Reset restores the context to state (index, mps).
func (c *Context) Reset(index int, mps int) {
	c.index = uint8(index)
	c.mps = uint8(mps)
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

// Encode codes decision d (0 or 1) in context cx, updating the context. The
// MPS and LPS flows are split so the dominant no-renormalization MPS case —
// the vast majority of tier-1 decisions once contexts adapt — costs one
// compare, one subtract and one add before returning.
func (e *Encoder) Encode(d int, cx *Context) {
	q := &qeTable[cx.index]
	a := e.a - q.qe
	if uint8(d) == cx.mps {
		// CODEMPS
		if a&0x8000 != 0 {
			// Fast path: interval still normalized, no state transition.
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
	// CODELPS (conditional exchange: the LPS keeps the larger subinterval).
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

// renorm is RENORME.
func (e *Encoder) renorm() {
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
type Decoder struct {
	data    []byte
	bp      int
	c       uint32
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
	d.c = uint32(d.byteAt(0)) << 16
	d.byteIn()
	d.c <<= 7
	d.ct -= 7
	d.a = 0x8000
}

func (d *Decoder) byteAt(i int) byte {
	if i < len(d.data) {
		return d.data[i]
	}
	return 0xFF
}

// byteIn is BYTEIN with unstuffing and end-of-segment synthesis. The common
// case — both the current and the next byte are inside the segment — reads
// the slice directly; only reads at or past the end go through the byteAt
// synthesis of trailing 0xFF bytes.
func (d *Decoder) byteIn() {
	if bp := d.bp; bp+1 < len(d.data) {
		b0 := d.data[bp]
		b1 := d.data[bp+1]
		if b0 != 0xFF {
			d.bp = bp + 1
			d.c += uint32(b1) << 8
			d.ct = 8
			return
		}
		if b1 > 0x8F {
			d.c += 0xFF00
			d.ct = 8
			return
		}
		d.bp = bp + 1
		d.c += uint32(b1) << 9
		d.ct = 7
		return
	}
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

// Overrun returns the number of synthetic byte reads performed past the end
// of the segment since Reset. Clean decodes read at most a couple of
// synthesized bytes (the flush bytes the encoder drops); a large overrun means
// the decoder was driven far past its data — the "MQ decoder ran off its
// segment" corruption signal resilient tier-1 decoding keys on.
func (d *Decoder) Overrun() int { return d.overrun }

// Decode returns the next decision in context cx, updating the context. As
// in Encode, the dominant path — MPS with the interval still normalized —
// returns after one compare, one subtract and one masked test.
func (d *Decoder) Decode(cx *Context) int {
	q := &qeTable[cx.index]
	a := d.a - q.qe
	if (d.c >> 16) >= q.qe {
		d.c -= q.qe << 16
		if a&0x8000 != 0 {
			// Fast path: no renormalization, no state transition.
			d.a = a
			return int(cx.mps)
		}
		// MPS exchange
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
	// LPS exchange
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

// renorm is RENORMD.
func (d *Decoder) renorm() {
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
