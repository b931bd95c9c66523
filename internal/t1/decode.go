package t1

import (
	"fmt"

	"pj2k/internal/dwt"
	"pj2k/internal/mq"
	"pj2k/internal/quant"
)

// BlockDecoder is the reusable tier-1 block decoder, mirroring Coder on the
// encode side: the bordered magnitude/flag arrays and the MQ
// decoder persist across blocks, so steady-state decoding performs no heap
// allocations. Code-blocks are independent, so each decode worker owns one
// BlockDecoder and shares nothing.
//
// DecodeInto writes a block's final samples straight into its rectangle of
// the caller's coefficient plane, the decode path's one write per sample;
// workers decoding different blocks of one plane write disjoint rectangles.
// A BlockDecoder is not safe for concurrent use. Like Coder it holds its
// symbol-rate state (contexts, MQ registers, raw reader) by value and its zero
// value is ready for use, so an owner embeds it in a per-worker block; it must
// not be copied once it has decoded a block.
type BlockDecoder struct {
	c   coder
	mq  mq.Decoder
	out []int32 // the arena DecodeBlock (benchpins.go) hands out

	modes   Modes
	segData []byte
	segEnds []int
	ovr     int       // overrun total banked across codeword segments
	rr      rawReader // raw-segment reader of the bypassed passes
}

// SegStats reports what a checked decode had to do to a block: whether the
// result was concealed (truncated to its last clean cleanup pass, or zeroed
// outright) and how many of the requested passes were dropped doing so.
type SegStats struct {
	Concealed     bool
	DroppedPasses int
}

// overrunSlack is the largest number of synthetic past-the-end MQ byte reads
// a clean decode is allowed before the segment counts as corrupt: the encoder
// drops at most one trailing 0xFF plus up to two flush bytes, and the decoder
// reads at most a couple of bytes ahead, so a healthy segment never synthesizes
// more than a handful. The data-proportional term keeps the bound loose for
// rate-truncated segments, whose final bits legitimately come from synthesis.
func overrunSlack(n int) int { return 8 + n/4 }

// BlockIn describes one code-block to decode: the concatenated codeword
// segments in Data, the pass count they cover, the coder modes the stream was
// encoded with, and — when Modes terminate passes — the cumulative byte
// offsets in Data at which segments end (nil otherwise; tier-2 collects them
// from the per-segment lengths the packet headers signal).
type BlockIn struct {
	W, H         int
	Band         dwt.BandType
	NumBitplanes int
	Data         []byte
	NPasses      int
	Modes        Modes
	SegEnds      []int
}

// Dest is the W x H rectangle of a coefficient plane a block decodes into:
// its first sample at index Off, rows Stride apart, in Int (the integer
// coefficients of a 5/3 plane) or, when Float is set, in Float (a 9/7 plane,
// dequantized by Step with quant.Dequant). A positive ROIShift is the
// MAXSHIFT scaling to undo.
type Dest struct {
	Int         []int32
	Float       []float64
	Off, Stride int
	Step        float64
	ROIShift    int
}

// DecodeInto reconstructs a code-block under its coder modes, with the
// error-resilience tools wired in, and writes every sample of dst's
// rectangle, zeros included, so the plane needs no clearing. With
// Modes.SegSym the four-symbol segmentation marker terminating each cleanup
// pass is verified: a mismatch is corruption at or before that pass. With
// resilient set, detected corruption — a failed segmentation symbol, an
// inconsistent segment layout, or (without symbols) the coders running far
// past their segments — is concealed instead of returned as an error: the
// block is re-decoded truncated to its last clean cleanup pass (or zeroed
// when no clean prefix exists) and the damage is reported in SegStats. With
// resilient false those conditions are errors, making strict decodes
// self-checking; after an error the rectangle is left unspecified.
func (bd *BlockDecoder) DecodeInto(in *BlockIn, dst *Dest, resilient bool) (SegStats, error) {
	st, passes, err := bd.decode(in, resilient)
	if err == nil {
		bd.fill(dst, in.W, in.H, in.NumBitplanes, passes)
	}
	return st, err
}

// decode runs DecodeInto's pass loop and concealment, reporting how many
// passes the coder's bordered state holds (0: the block is all zero).
func (bd *BlockDecoder) decode(in *BlockIn, resilient bool) (SegStats, int, error) {
	var st SegStats
	if in.W <= 0 || in.H <= 0 {
		return st, 0, fmt.Errorf("t1: invalid block %dx%d", in.W, in.H)
	}
	npasses := in.NPasses
	if npasses < 0 {
		if !resilient {
			return st, 0, fmt.Errorf("t1: negative pass count %d", npasses)
		}
		st.Concealed = true // impossible state: conceal as an empty block
		npasses = 0
	}
	if in.NumBitplanes <= 0 || npasses == 0 {
		return st, 0, nil
	}
	if resilient && in.NumBitplanes > 31 {
		// int32 magnitudes cannot hold more planes: a corrupt zero-bit-plane
		// count drove Mb-zbp out of range. Conceal as a zero block.
		st.Concealed = true
		st.DroppedPasses = npasses
		return st, 0, nil
	}
	if err := bd.bindSegments(in, npasses); err != nil {
		if !resilient {
			return st, 0, err
		}
		st.Concealed = true // segment layout lies about the data: zero the block
		st.DroppedPasses = npasses
		return st, 0, nil
	}
	decoded, ok := bd.runPasses(in.W, in.H, in.Band, in.NumBitplanes, npasses)
	if !ok {
		if !resilient {
			return st, 0, fmt.Errorf("t1: segmentation symbol mismatch after pass %d", decoded)
		}
		st.Concealed = true
		st.DroppedPasses = npasses - decoded
		if decoded == 0 {
			return st, 0, nil // no clean prefix: zero the block
		}
		// The prefix through the last verified cleanup pass is clean;
		// re-decode just it (corruption is rare, so the replay cost is paid
		// almost never).
		bd.runPasses(in.W, in.H, in.Band, in.NumBitplanes, decoded)
	} else if resilient && !in.Modes.SegSym {
		if bd.ovr > overrunSlack(len(in.Data)) {
			// Without segmentation symbols there is no per-pass checkpoint to
			// replay to; a decoder driven far past its segments zeroes the block.
			st.Concealed = true
			st.DroppedPasses = npasses
			return st, 0, nil
		}
	}
	return st, decoded, nil
}

// bindSegments validates in's codeword-segment layout against its modes and
// stashes it on the decoder for runPasses. Non-terminating modes use all of
// Data as the single segment; terminating modes require one byte offset per
// segment, non-decreasing and within Data.
func (bd *BlockDecoder) bindSegments(in *BlockIn, npasses int) error {
	bd.modes, bd.segData, bd.segEnds = in.Modes, in.Data, nil
	if !in.Modes.Terminated() {
		return nil
	}
	want := in.Modes.NumSegments(npasses)
	if len(in.SegEnds) != want {
		return fmt.Errorf("t1: %d codeword segments signalled, modes require %d for %d passes",
			len(in.SegEnds), want, npasses)
	}
	prev := 0
	for _, e := range in.SegEnds {
		if e < prev || e > len(in.Data) {
			return fmt.Errorf("t1: codeword segment end %d out of order or past %d data bytes", e, len(in.Data))
		}
		prev = e
	}
	bd.segEnds = in.SegEnds
	return nil
}

// segRange returns the byte range of codeword segment k within segData.
func (bd *BlockDecoder) segRange(k int) (int, int) {
	if bd.segEnds == nil {
		return 0, len(bd.segData)
	}
	lo := 0
	if k > 0 && k <= len(bd.segEnds) {
		lo = bd.segEnds[k-1]
	}
	hi := lo
	if k < len(bd.segEnds) {
		hi = bd.segEnds[k]
	}
	return lo, hi
}

// startSeg aims the MQ or raw reader at pass's codeword segment. A new
// segment begins at pass 0 and after every terminated pass; before re-aiming,
// the finished segment's overrun is banked so DecodeBlock can judge the
// whole block. The finished pass pass-1 read via the raw reader exactly when
// it was bypassed, so the banking mirrors the reader choice.
func (bd *BlockDecoder) startSeg(pass int, seg *int, raw bool) {
	if pass > 0 {
		if !bd.modes.TermPass(pass - 1) {
			return
		}
		if bd.modes.passBypassed(pass - 1) {
			bd.ovr += bd.rr.overrun
		} else {
			bd.ovr += bd.mq.Overrun()
		}
		*seg++
	}
	lo, hi := bd.segRange(*seg)
	if raw {
		bd.rr.Reset(bd.segData[lo:hi])
	} else {
		bd.mq.Reset(bd.segData[lo:hi])
	}
}

// runPasses runs the pass loop over the decoder's bordered state, switching
// coders and codeword segments at the boundaries the bound modes dictate and
// verifying the segmentation symbol after each cleanup pass when enabled.
// Returns the pass count reached and whether every checked symbol matched;
// on a mismatch the returned count is the passes through the last verified
// cleanup (the clean prefix a concealment replay can trust).
func (bd *BlockDecoder) runPasses(w, h int, band dwt.BandType, numBitplanes, npasses int) (int, bool) {
	c := &bd.c
	m := bd.modes
	c.causal = m.Causal
	c.reset(w, h, band)
	c.resetContexts()
	bd.ovr = 0

	pass, good, seg := 0, 0, 0
	nbp := numBitplanes
planes:
	for p := nbp - 1; p >= 0; p-- {
		plane := uint(p)
		if p != nbp-1 {
			if pass == npasses {
				break planes
			}
			if m.passBypassed(pass) {
				bd.startSeg(pass, &seg, true)
				bd.decSigPropRaw(plane)
			} else {
				bd.startSeg(pass, &seg, false)
				bd.decSigProp(plane)
			}
			if m.ResetCtx {
				c.resetContexts()
			}
			pass++
			if pass == npasses {
				break planes
			}
			if m.passBypassed(pass) {
				bd.startSeg(pass, &seg, true)
				bd.decRefineRaw(plane)
			} else {
				bd.startSeg(pass, &seg, false)
				bd.decRefine(plane)
			}
			pass++
			if m.ResetCtx {
				c.resetContexts()
			}
		}
		if pass == npasses {
			break planes
		}
		bd.startSeg(pass, &seg, false)
		bd.decCleanup(plane)
		pass++
		if m.SegSym && !bd.decSegSym() {
			return good, false
		}
		good = pass
		if m.ResetCtx {
			c.resetContexts()
		}
	}
	// Bank the final segment's overrun (raw iff the last pass was bypassed).
	if pass > 0 {
		if m.passBypassed(pass - 1) {
			bd.ovr += bd.rr.overrun
		} else {
			bd.ovr += bd.mq.Overrun()
		}
	}
	return pass, true
}

// decSegSym decodes the four-symbol segmentation marker terminating a cleanup
// pass, reporting whether it matched the encoder's 0xA.
func (bd *BlockDecoder) decSegSym() bool {
	c := &bd.c
	v := 0
	for i := 0; i < 4; i++ {
		v = v<<1 | bd.mq.Decode(&c.cx[ctxUNI])
	}
	return v == 0xA
}

// fill writes the w x h block into dst's rectangle, every sample: zero for a
// block that decoded no passes and for a sample that never became significant;
// otherwise the magnitude plus the midpoint of the undecoded interval (planes
// below the one it was last coded at), signed, with MAXSHIFT undone —
// magnitudes at or above 2^ROIShift belong to the ROI and are shifted back
// down — and, on a float plane, dequantized. The last of the passes run fixes
// that plane: p after a cleanup or refinement pass at p; after a significance
// pass at p, p for a sample it visited and p+1 for every other.
func (bd *BlockDecoder) fill(dst *Dest, w, h, nbp, passes int) {
	c := &bd.c
	p, sigLast := max(nbp-1, 0), false
	if k := passes - 1; k > 0 {
		p, sigLast = nbp-2-(k-1)/3, (k-1)%3 == 0
	}
	midVis, midRest := int32(uint32(1)<<p>>1), int32(uint32(1)<<p>>1)
	if sigLast {
		midRest = int32(uint32(1) << p)
	}
	s := uint(max(dst.ROIShift, 0))
	thr := int32(1) << s
	for y := 0; y < h; y++ {
		o, i := dst.Off+y*dst.Stride, c.idx(0, y)
		for x := 0; x < w; x++ {
			var v int32
			if passes > 0 && c.flags[i+x]&fSig != 0 {
				v = c.mag[i+x] + midRest
				if c.flags[i+x]&fVisited != 0 {
					v = c.mag[i+x] + midVis
				}
				if c.flags[i+x]&fNeg != 0 {
					v = -v
				}
				if m := max(v, -v); s > 0 && m >= thr {
					if v < 0 {
						v = -(m >> s)
					} else {
						v = m >> s
					}
				}
			}
			if dst.Float != nil {
				dst.Float[o+x] = quant.Dequant(v, dst.Step)
			} else {
				dst.Int[o+x] = v
			}
		}
	}
}

// decSigProp mirrors encSigProp on the decode side.
func (bd *BlockDecoder) decSigProp(plane uint) {
	c := &bd.c
	f, bw, zc := c.flags, c.bw, c.zc
	rm := &c.rowMask
	for y0 := 0; y0 < c.h; y0 += 4 {
		rows := min(c.h-y0, 4)
		i0 := (y0+1)*bw + 1
		for x := 0; x < c.w; x++ {
			i := i0 + x
			if rows == 4 && (f[i]|f[i+bw]|f[i+2*bw]|f[i+3*bw]&rm[3])&fSigOth == 0 {
				continue // nothing in this column has a significant neighbor
			}
			for k := 0; k < rows; k, i = k+1, i+bw {
				fl := f[i] & rm[k]
				if fl&fSig != 0 || fl&fSigOth == 0 {
					continue
				}
				if bd.mq.Decode(&c.cx[zc[fl&fSigOth]]) == 1 {
					bd.decSign(i, plane, rm[k])
				}
				f[i] |= fVisited
			}
		}
	}
}

// decSigPropRaw mirrors encSigPropRaw: the bypassed significance pass, read
// as raw stuffed bits.
func (bd *BlockDecoder) decSigPropRaw(plane uint) {
	c := &bd.c
	f, bw := c.flags, c.bw
	r := &bd.rr
	rm := &c.rowMask
	for y0 := 0; y0 < c.h; y0 += 4 {
		rows := min(c.h-y0, 4)
		i0 := (y0+1)*bw + 1
		for x := 0; x < c.w; x++ {
			i := i0 + x
			if rows == 4 && (f[i]|f[i+bw]|f[i+2*bw]|f[i+3*bw]&rm[3])&fSigOth == 0 {
				continue
			}
			for k := 0; k < rows; k, i = k+1, i+bw {
				fl := f[i] & rm[k]
				if fl&fSig != 0 || fl&fSigOth == 0 {
					continue
				}
				if r.ReadBit() == 1 {
					neg := r.ReadBit() == 1
					if neg {
						f[i] |= fNeg
					}
					c.setSig(i, neg)
					c.mag[i] |= 1 << plane
				}
				f[i] |= fVisited
			}
		}
	}
}

// decSign decodes the sign of sample i which just became significant at
// plane and marks it significant in its neighborhood. mask is the stripe-row
// flag mask (all ones outside causal mode).
func (bd *BlockDecoder) decSign(i int, plane uint, mask uint32) {
	c := &bd.c
	sc := scLUT[(c.flags[i]&mask)>>4&0xFF]
	bit := bd.mq.Decode(&c.cx[sc&0x1F])
	neg := bit^int(sc>>7) == 1
	if neg {
		c.flags[i] |= fNeg
	}
	c.setSig(i, neg)
	c.mag[i] |= 1 << plane
}

// decRefine mirrors encRefine on the decode side.
func (bd *BlockDecoder) decRefine(plane uint) {
	c := &bd.c
	f, mag, bw := c.flags, c.mag, c.bw
	rm := &c.rowMask
	for y0 := 0; y0 < c.h; y0 += 4 {
		rows := min(c.h-y0, 4)
		i0 := (y0+1)*bw + 1
		for x := 0; x < c.w; x++ {
			i := i0 + x
			if rows == 4 && (f[i]|f[i+bw]|f[i+2*bw]|f[i+3*bw])&fSig == 0 {
				continue // nothing significant in this column to refine
			}
			for k := 0; k < rows; k, i = k+1, i+bw {
				fl := f[i]
				if fl&(fSig|fVisited) != fSig {
					continue
				}
				if bd.mq.Decode(&c.cx[mrCtx(fl&rm[k])]) == 1 {
					mag[i] |= 1 << plane
				}
				f[i] = fl | fRefined
			}
		}
	}
}

// decRefineRaw mirrors encRefineRaw: the bypassed refinement pass, read as
// raw stuffed bits.
func (bd *BlockDecoder) decRefineRaw(plane uint) {
	c := &bd.c
	f, mag, bw := c.flags, c.mag, c.bw
	r := &bd.rr
	for y0 := 0; y0 < c.h; y0 += 4 {
		rows := min(c.h-y0, 4)
		i0 := (y0+1)*bw + 1
		for x := 0; x < c.w; x++ {
			i := i0 + x
			if rows == 4 && (f[i]|f[i+bw]|f[i+2*bw]|f[i+3*bw])&fSig == 0 {
				continue
			}
			for k := 0; k < rows; k, i = k+1, i+bw {
				fl := f[i]
				if fl&(fSig|fVisited) != fSig {
					continue
				}
				// No fRefined update: the flag only selects the MQ refine
				// context, never consulted again once the plane is bypassed.
				if r.ReadBit() == 1 {
					mag[i] |= 1 << plane
				}
			}
		}
	}
}

// decCleanup mirrors encCleanup on the decode side, and drops each visited
// bit as it passes the sample, leaving the next plane's significance pass a
// clean slate.
func (bd *BlockDecoder) decCleanup(plane uint) {
	c := &bd.c
	f, bw, zc := c.flags, c.bw, c.zc
	rm := &c.rowMask
	for y0 := 0; y0 < c.h; y0 += 4 {
		rows := min(c.h-y0, 4)
		i0 := (y0+1)*bw + 1
		for x := 0; x < c.w; x++ {
			i := i0 + x
			y := 0
			if rows == 4 && (f[i]|f[i+bw]|f[i+2*bw]|f[i+3*bw]&rm[3])&(fSig|fVisited|fSigOth) == 0 {
				if bd.mq.Decode(&c.cx[ctxRL]) == 0 {
					continue
				}
				first := bd.mq.Decode(&c.cx[ctxUNI])<<1 | bd.mq.Decode(&c.cx[ctxUNI])
				bd.decSign(i+first*bw, plane, rm[first])
				y = first + 1
			}
			for ; y < rows; y++ {
				ii := i + y*bw
				fl := f[ii] & rm[y]
				if fl&(fSig|fVisited) != 0 {
					f[ii] &^= fVisited
					continue
				}
				if bd.mq.Decode(&c.cx[zc[fl&fSigOth]]) == 1 {
					bd.decSign(ii, plane, rm[y])
				}
			}
		}
	}
}
