package t1

// Modes selects the optional code-block coding styles of JPEG2000 Part 1
// (the COD marker's code-block style bits). The zero value is the default
// coder: every pass MQ-coded into a single codeword segment, full-neighborhood
// contexts, no segmentation symbols.
type Modes struct {
	// Bypass (arithmetic bypass, "lazy" coding, style bit 0x01) codes the
	// significance-propagation and magnitude-refinement passes from the
	// fourth significant bit-plane on as raw stuffed bits, skipping the MQ
	// coder where most of the coded data lives. Implies segment
	// terminations at every MQ↔raw transition.
	Bypass bool
	// ResetCtx (style bit 0x02) resets the MQ context states after every
	// coding pass.
	ResetCtx bool
	// TermAll (style bit 0x04) terminates the codeword segment after every
	// coding pass, so each pass occupies an independently positioned byte
	// range (signalled per-segment in packet headers).
	TermAll bool
	// Causal (style bit 0x08) makes context formation vertically
	// stripe-causal: samples in the last row of a stripe ignore their
	// neighbors in the stripe below, removing the inter-stripe dependency.
	Causal bool
	// SegSym (style bit 0x20) codes a segmentation symbol after every
	// cleanup pass, giving the decoder an error-detection checkpoint.
	SegSym bool
}

// Any reports whether any non-default style is selected.
func (m Modes) Any() bool {
	return m.Bypass || m.ResetCtx || m.TermAll || m.Causal || m.SegSym
}

// Terminated reports whether m can produce more than one codeword segment
// per block, i.e. whether per-segment lengths must be signalled.
func (m Modes) Terminated() bool { return m.TermAll || m.Bypass }

// bypassFirstPass is the first coding pass raw-coded under Bypass. Passes
// are numbered from 0 (the cleanup of the most significant plane); pass p≥1
// codes plane (p-1)/3+1 below the MSB, so pass 10 is the significance pass
// of the fourth significant bit-plane — the standard's bypass boundary.
const bypassFirstPass = 10

// passBypassed reports whether coding pass pass is raw-coded under m:
// significance and refinement (but never cleanup) passes from the fourth
// significant bit-plane on.
func (m Modes) passBypassed(pass int) bool {
	return m.Bypass && pass >= bypassFirstPass && (pass-1)%3 != 2
}

// TermPass reports whether the codeword segment is terminated after pass.
// TermAll terminates every pass; Bypass terminates at each MQ↔raw
// transition. The block's final contributed pass is always terminated,
// independent of this.
func (m Modes) TermPass(pass int) bool {
	if m.TermAll {
		return true
	}
	return m.Bypass && m.passBypassed(pass) != m.passBypassed(pass+1)
}

// NumSegments returns the number of codeword segments covering the first
// npasses coding passes of a block coded with m.
func (m Modes) NumSegments(npasses int) int {
	if npasses <= 0 {
		return 0
	}
	if !m.Terminated() {
		return 1
	}
	n := 1
	for p := 0; p < npasses-1; p++ {
		if m.TermPass(p) {
			n++
		}
	}
	return n
}

// AppendSegEnds appends the cumulative pass counts at which codeword
// segments end, for passes [from, to) of a block coded with m: one entry
// after each terminated pass plus one for the final pass. Tier-2 uses it to
// split a packet's contribution into per-segment signalled lengths.
func (m Modes) AppendSegEnds(dst []int, from, to int) []int {
	if !m.Terminated() {
		return append(dst, to)
	}
	for p := from; p < to-1; p++ {
		if m.TermPass(p) {
			dst = append(dst, p+1)
		}
	}
	return append(dst, to)
}

// rawReader reads the bits of a raw (arithmetic-bypass) codeword segment:
// MSB-first with the 0xFF stuffing rule (after an 0xFF byte only seven bits
// occupy the next byte; its MSB is a stuffed zero). Reads past the end of
// the segment synthesize 1-bits and are counted, mirroring mq.Decoder's
// overrun accounting so resilience checks can spot truncated segments.
type rawReader struct {
	data    []byte
	pos     int
	acc     uint32
	nacc    int
	prev    byte
	overrun int
}

// Reset re-aims the reader at a new segment.
func (r *rawReader) Reset(data []byte) {
	r.data, r.pos, r.acc, r.nacc, r.prev, r.overrun = data, 0, 0, 0, 0, 0
}

// ReadBit returns the next raw bit.
func (r *rawReader) ReadBit() int {
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
