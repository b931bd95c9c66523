// Package t1 implements the EBCOT tier-1 code-block coder of JPEG2000
// (ISO/IEC 15444-1 Annex D): bit-plane coding of quantized wavelet
// coefficients in three passes per plane (significance propagation, magnitude
// refinement, cleanup) driven by the MQ arithmetic coder, with per-pass rate
// and distortion tracking for the PCRD rate allocator.
//
// The coding contexts are table-driven: each sample carries a neighborhood
// flag word (see lut.go) kept current incrementally, so the per-sample cost
// of a pass is one flag load and one LUT index instead of eight neighbor
// loads and a branchy per-band switch.
//
// Code-blocks are strictly independent — the property the paper's parallel
// encoding stage exploits: "no synchronization is necessary due to the
// processing of independent code-blocks."
package t1

import (
	"pj2k/internal/bitio"
	"pj2k/internal/dwt"
	"pj2k/internal/mq"
	"pj2k/internal/rate"
)

// Context indices (Annex D conventions): 0-8 zero coding, 9-13 sign coding,
// 14-16 magnitude refinement, 17 run-length, 18 uniform.
const (
	ctxZC0 = 0
	ctxSC0 = 9
	ctxMR0 = 14
	ctxRL  = 17
	ctxUNI = 18
	nctx   = 19
)

// rateMargin is the number of bytes added to the MQ coder's emitted count at
// each pass boundary so that truncating the final segment at a pass's rate
// always yields a decodable prefix (covers the C register and flush bytes).
// rawRateMargin is the raw-segment equivalent (a pending partial byte is
// already counted by StuffWriter.Len; the margin covers the possible stuffed
// 0x00 after a trailing 0xFF). At terminated passes rates are exact instead.
const (
	rateMargin    = 5
	rawRateMargin = 2
)

// Pass records one coding pass's cumulative rate and its distortion
// reduction in quantized-magnitude units squared; the caller scales by
// (step * band synthesis norm)^2 to get image-domain MSE reduction.
type Pass struct {
	Rate      int     // bytes of Data sufficient to decode through this pass
	DistDelta float64 // MSE reduction contributed by this pass
}

// EncodedBlock is the output of Encode for one code-block. Data concatenates
// the block's codeword segments (one unless Modes terminate passes); Pass
// rates are exact at segment terminations and conservatively margined inside
// a segment, so SegmentEnds can recover segment boundaries from them.
type EncodedBlock struct {
	W, H         int
	Band         dwt.BandType
	NumBitplanes int
	Modes        Modes
	Passes       []Pass
	Data         []byte
	// Witness is non-zero when EncodeStop ended the block early: coding
	// stopped after len(Passes) of TotalPasses(NumBitplanes) passes because
	// the R-D hull vertex at Witness passes was certified to survive whatever
	// the remaining passes would have added. The block then stands in for the
	// fully coded one in any allocation that takes fewer than Witness passes
	// of it (DESIGN.md §8); Data holds the bytes no further coding could have
	// changed.
	Witness int
}

// SegmentEnds appends the cumulative byte offsets in Data at which the
// codeword segments covering the first npasses passes end. Returns dst
// unchanged (nil for a nil dst) when the block is a single segment, matching
// BlockIn's contract.
func (eb *EncodedBlock) SegmentEnds(dst []int, npasses int) []int {
	m := eb.Modes
	if !m.Terminated() || npasses <= 0 {
		return dst
	}
	for p := 0; p < npasses-1; p++ {
		if m.TermPass(p) {
			dst = append(dst, eb.Passes[p].Rate)
		}
	}
	end := eb.Passes[npasses-1].Rate
	if end > len(eb.Data) {
		end = len(eb.Data)
	}
	return append(dst, end)
}

// coder holds the per-block state shared by the encode and decode pass
// machinery: bordered magnitude and flag-word arrays plus the MQ contexts.
type coder struct {
	w, h   int
	bw     int // bordered width
	mag    []int32
	flags  []uint32
	cx     [nctx]mq.Context
	band   dwt.BandType
	zc     *[256]uint8 // zcLUT[band], rebound per block
	causal bool
	// rowMask masks the flag word per stripe row before context formation.
	// Rows 0-2 pass everything; under stripe-causal mode row 3 drops the
	// south-neighbor bits so contexts never depend on the stripe below.
	rowMask [4]uint32
}

func (c *coder) idx(x, y int) int { return (y+1)*c.bw + (x + 1) }

// reset sizes the bordered arrays for a w x h block of the given band and
// clears all per-block state.
func (c *coder) reset(w, h int, band dwt.BandType) {
	c.w, c.h, c.bw, c.band = w, h, w+2, band
	c.zc = &zcLUT[band]
	c.rowMask = [4]uint32{^uint32(0), ^uint32(0), ^uint32(0), ^uint32(0)}
	if c.causal {
		c.rowMask[3] = ^uint32(fSigSE | fSigSW | fSigS | fSgnS)
	}
	n := (w + 2) * (h + 2)
	if cap(c.mag) < n {
		c.mag = make([]int32, n)
		c.flags = make([]uint32, n)
	} else {
		c.mag = c.mag[:n]
		c.flags = c.flags[:n]
		clear(c.mag)
		clear(c.flags)
	}
}

func (c *coder) resetContexts() {
	for i := range c.cx {
		c.cx[i].Reset(0, 0)
	}
	c.cx[ctxZC0].Reset(4, 0)
	c.cx[ctxRL].Reset(3, 0)
	c.cx[ctxUNI].Reset(46, 0)
}

// clearVisited drops the per-plane visited bits. Only interior samples ever
// set fVisited, but clearing the whole bordered array is branch-free.
func (c *coder) clearVisited() {
	for i := range c.flags {
		c.flags[i] &^= fVisited
	}
}

// distSig is the distortion reduction when magnitude v becomes significant
// at plane p (reconstruction moves from 0 to the plane-p midpoint). All the
// quantities involved are integers (the midpoint offset 2^(p-1) included),
// so the error terms are computed in int64 — one conversion per call instead
// of four, and exact for any magnitude below 2^31.
func distSig(v int32, p uint) float64 {
	var e1 int64
	if p > 0 {
		e1 = int64(v&(1<<p-1)) - int64(1)<<(p-1)
	}
	vi := int64(v)
	return float64(vi*vi - e1*e1)
}

// distRef is the distortion reduction when a significant magnitude v is
// refined at plane p. Same integer formulation as distSig: the plane-p
// residual r determines both error terms directly.
func distRef(v int32, p uint) float64 {
	r := int64(v & (1<<p - 1))
	e0 := r
	if v>>p&1 == 0 {
		e0 = r - int64(1)<<p
	}
	var e1 int64
	if p > 0 {
		e1 = r - int64(1)<<(p-1)
	}
	return float64(e0*e0 - e1*e1)
}

// Coder is a reusable tier-1 block encoder: the bordered magnitude/flag
// arrays, the MQ encoder and the output storage all persist across blocks,
// so steady-state encoding performs no heap allocations. Code-blocks are
// independent (the property the paper's synchronization-free parallel tier-1
// stage rests on), so each worker owns one Coder and shares nothing.
//
// Returned EncodedBlocks live in arenas owned by the Coder: they stay valid
// until Release, which reclaims every block handed out since the previous
// Release. A Coder is not safe for concurrent use.
//
// The state written on every coded symbol — the MQ registers, the contexts,
// the raw bit writer — is held by value, so it sits wherever the Coder sits
// and the pass loops reach it without a pointer hop; only the big buffers
// hang off it. The zero value is ready for use, so an owner can embed a Coder
// in its own per-worker block (jp2k does, padded to core.CacheLinePad).
type Coder struct {
	c   coder
	enc mq.Encoder

	// Modes selects the optional code-block styles (bypass, per-pass
	// termination, context reset, stripe-causal contexts, segmentation
	// symbols). The zero value is the default coder; any non-default mode
	// changes the bitstream and must be signalled in the COD marker.
	Modes Modes

	raw    bitio.StuffWriter // raw (bypass) segment writer
	seg    []byte            // completed codeword segments of the current block
	stop   stopRule          // early-termination state of the current block
	hull   rate.Hull         // R-D hull of the passes coded so far (stop rule only)
	blocks []EncodedBlock
	passes []Pass
	data   []byte
}

// Release reclaims all EncodedBlocks returned by Encode since the last
// Release. The caller must have dropped every reference to them.
func (co *Coder) Release() {
	co.blocks = co.blocks[:0]
	co.passes = co.passes[:0]
	co.data = co.data[:0]
}

// takeBlock returns a zeroed EncodedBlock from the block arena.
func (co *Coder) takeBlock() *EncodedBlock {
	if len(co.blocks) < cap(co.blocks) {
		co.blocks = co.blocks[:len(co.blocks)+1]
		eb := &co.blocks[len(co.blocks)-1]
		*eb = EncodedBlock{}
		return eb
	}
	co.blocks = append(co.blocks, EncodedBlock{})
	return &co.blocks[len(co.blocks)-1]
}

// takePasses carves a len-0 cap-n slice out of the pass arena. When the
// current chunk is exhausted a larger one replaces it; slices handed out
// earlier keep their (still live) old backing storage.
func (co *Coder) takePasses(n int) []Pass {
	if cap(co.passes)-len(co.passes) < n {
		c := 2 * cap(co.passes)
		if c < n {
			c = n
		}
		if c < 512 {
			c = 512
		}
		co.passes = make([]Pass, 0, c)
	}
	base := len(co.passes)
	co.passes = co.passes[:base+n]
	return co.passes[base : base : base+n]
}

// takeData carves a length-n slice out of the byte arena.
func (co *Coder) takeData(n int) []byte {
	if cap(co.data)-len(co.data) < n {
		c := 2 * cap(co.data)
		if c < n {
			c = n
		}
		if c < 1<<14 {
			c = 1 << 14
		}
		co.data = make([]byte, 0, c)
	}
	base := len(co.data)
	co.data = co.data[:base+n]
	return co.data[base : base+n : base+n]
}

// stopRule is the early-termination state of one block (DESIGN.md §8).
type stopRule struct {
	lambda float64 // stop once a hull vertex with incoming slope below this is certified; 0 never stops
	weight float64 // band R-D weight, applied to DistDelta exactly as the allocator's caller applies it
	bound  float64 // weight * sum of squared magnitudes: no cumulative distortion reduction exceeds it
	cum    float64 // weighted distortion reduction of the passes coded so far
	at     int     // tests only: stop unconditionally after this many passes
}

// Encode codes one code-block, reusing the Coder's buffers. data holds signed
// quantized coefficients for a w x h block with the given row stride; band
// selects the context tables. See Coder for the lifetime of the result.
func (co *Coder) Encode(data []int32, w, h, stride int, band dwt.BandType) *EncodedBlock {
	return co.encode(data, w, h, stride, band, stopRule{})
}

// EncodeStop is Encode with permission to stop early: coding ends after the
// first pass at which some vertex of the block's R-D hull with incoming slope
// below lambda is certified to survive every possible continuation
// (rate.Hull.Certify), and the result records that vertex as its Witness.
// weight is the band's R-D weight — the factor the caller applies to
// DistDelta before rate allocation — so the slopes compared against lambda
// are the allocator's own. lambda 0 never stops and is exactly Encode; so is
// any lambda under Bypass without TermAll, where truncation points are
// restricted to segment ends and the rule does not apply.
func (co *Coder) EncodeStop(data []int32, w, h, stride int, band dwt.BandType, weight, lambda float64) *EncodedBlock {
	if co.Modes.Bypass && !co.Modes.TermAll {
		lambda = 0
	}
	return co.encode(data, w, h, stride, band, stopRule{lambda: lambda, weight: weight})
}

func (co *Coder) encode(data []int32, w, h, stride int, band dwt.BandType, stop stopRule) *EncodedBlock {
	c := &co.c
	m := co.Modes
	c.causal = m.Causal
	c.reset(w, h, band)
	var maxMag int32
	for y := 0; y < h; y++ {
		i := c.idx(0, y)
		for _, v := range data[y*stride : y*stride+w] {
			if v < 0 {
				c.flags[i] |= fNeg
				v = -v
			}
			c.mag[i] = v
			if v > maxMag {
				maxMag = v
			}
			i++
		}
	}
	eb := co.takeBlock()
	eb.W, eb.H, eb.Band, eb.Modes = w, h, band, m
	if maxMag == 0 {
		return eb
	}
	nbp := 0
	for v := maxMag; v > 0; v >>= 1 {
		nbp++
	}
	eb.NumBitplanes = nbp
	c.resetContexts()
	enc, raw := &co.enc, &co.raw
	enc.Init()
	raw.Reset()
	co.seg = co.seg[:0]
	total := TotalPasses(nbp)
	eb.Passes = co.takePasses(total)
	if stop.lambda > 0 {
		// The pass distortions telescope: their sum over a fully coded block
		// is the block's energy, and no prefix of it is larger.
		var energy float64
		for _, v := range c.mag {
			f := float64(v)
			energy += float64(f * f) // rounded before the sum: no FMA (DESIGN.md §3)
		}
		stop.bound = energy * stop.weight
		co.hull.Reset()
	}
	co.stop = stop

	pass := 0
	stopped := false
planes:
	for p := nbp - 1; p >= 0; p-- {
		plane := uint(p)
		if p != nbp-1 {
			var d float64
			if m.passBypassed(pass) {
				d = c.encSigPropRaw(raw, plane)
			} else {
				d = c.encSigProp(enc, plane)
			}
			if stopped = co.endPass(eb, pass, total, d); stopped {
				break planes
			}
			pass++
			if m.passBypassed(pass) {
				d = c.encRefineRaw(raw, plane)
			} else {
				d = c.encRefine(enc, plane)
			}
			if stopped = co.endPass(eb, pass, total, d); stopped {
				break planes
			}
			pass++
		}
		d := c.encCleanup(enc, plane)
		if m.SegSym {
			c.encSegSym(enc)
		}
		if stopped = co.endPass(eb, pass, total, d); stopped {
			break planes
		}
		pass++
		if p != 0 {
			c.clearVisited() // reset re-zeroes flags, so the last plane skips it
		}
	}
	if stopped {
		// Stopped inside an open MQ segment: keep the bytes no further coding
		// could change (empty when the last pass was terminated).
		co.seg = append(co.seg, enc.Stable()...)
	}
	eb.Data = co.takeData(len(co.seg))
	copy(eb.Data, co.seg)
	// Clamp pass rates: within the data and non-decreasing. A margined
	// (non-terminal) rate can overshoot the exact rate of a later terminated
	// pass; lower it backward rather than disturb exact segment boundaries —
	// the smaller value is already enough bytes to decode the earlier pass.
	// Default modes have non-decreasing margined rates, so this reduces to
	// the plain cap at the data length. (In a stopped block the capped rates
	// are exactly those above the stable byte count — the ones a full encode
	// might still have lowered; every rate below it is final.)
	if n := len(eb.Passes); n > 0 {
		eb.Passes[n-1].Rate = len(eb.Data)
		for k := n - 2; k >= 0; k-- {
			if eb.Passes[k].Rate > eb.Passes[k+1].Rate {
				eb.Passes[k].Rate = eb.Passes[k+1].Rate
			}
		}
	}
	return eb
}

// endPass closes coding pass pass: records its cumulative rate (exact when
// the codeword segment terminates here, margined otherwise) and applies the
// per-pass mode hooks — segment termination and context reset. Default modes
// terminate only the final pass, reproducing the single-segment bitstream.
// It reports whether the stop rule ends the block here.
func (co *Coder) endPass(eb *EncodedBlock, pass, total int, d float64) bool {
	m := co.Modes
	rawPass := m.passBypassed(pass)
	var rate int
	switch {
	case pass == total-1 || m.TermPass(pass):
		if rawPass {
			co.seg = append(co.seg, co.raw.Bytes()...)
			co.raw.Reset()
		} else {
			co.seg = append(co.seg, co.enc.Flush()...)
			co.enc.Init()
		}
		rate = len(co.seg)
	case rawPass:
		rate = len(co.seg) + co.raw.Len() + rawRateMargin
	default:
		rate = len(co.seg) + co.enc.NumBytes() + rateMargin
	}
	eb.Passes = append(eb.Passes, Pass{Rate: rate, DistDelta: d})
	if m.ResetCtx {
		co.c.resetContexts()
	}
	st := &co.stop
	if pass == total-1 || (st.lambda == 0 && st.at == 0) {
		return false
	}
	if st.lambda > 0 {
		// The rates of every pass still to come, and the final rates of the
		// passes whose margin reaches past it, are at least the byte count that
		// is already fixed: the finished segments plus the MQ coder's stable
		// bytes.
		st.cum += float64(d * st.weight)
		co.hull.Add(pass+1, rate, st.cum)
		floor := len(co.seg) + len(co.enc.Stable())
		eb.Witness = co.hull.Certify(st.bound, floor, st.lambda)
	}
	return eb.Witness != 0 || st.at == pass+1
}

// encSigProp runs the significance-propagation pass at the given plane:
// insignificant samples with at least one significant neighbor are zero-coded
// (and sign-coded on becoming significant). Returns the distortion reduction.
func (c *coder) encSigProp(enc *mq.Encoder, plane uint) float64 {
	var dist float64
	f, mag, bw, zc := c.flags, c.mag, c.bw, c.zc
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
				bit := int(mag[i] >> plane & 1)
				enc.Encode(bit, &c.cx[zc[fl&fSigOth]])
				if bit == 1 {
					dist += c.encSign(enc, i, plane, rm[k])
				}
				f[i] |= fVisited
			}
		}
	}
	return dist
}

// encSigPropRaw is the arithmetic-bypass significance pass: the same
// membership walk as encSigProp, but the decision and sign are written as
// raw stuffed bits (no contexts, no sign prediction).
func (c *coder) encSigPropRaw(w *bitio.StuffWriter, plane uint) float64 {
	var dist float64
	f, mag, bw := c.flags, c.mag, c.bw
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
				bit := int(mag[i] >> plane & 1)
				w.WriteBit(bit)
				if bit == 1 {
					s := 0
					if f[i]&fNeg != 0 {
						s = 1
					}
					w.WriteBit(s)
					c.setSig(i, s == 1)
					dist += distSig(mag[i], plane)
				}
				f[i] |= fVisited
			}
		}
	}
	return dist
}

// encSign codes the sign of sample i which just became significant at plane,
// marks it significant in its neighborhood, and returns the significance
// distortion. mask is the stripe-row flag mask (all ones outside causal mode).
func (c *coder) encSign(enc *mq.Encoder, i int, plane uint, mask uint32) float64 {
	sc := scLUT[(c.flags[i]&mask)>>4&0xFF]
	s := 0
	if c.flags[i]&fNeg != 0 {
		s = 1
	}
	enc.Encode(s^int(sc>>7), &c.cx[sc&0x1F])
	c.setSig(i, s == 1)
	return distSig(c.mag[i], plane)
}

// encRefine runs the magnitude-refinement pass: samples already significant
// before this plane (and not coded by this plane's sig-prop pass) emit one
// magnitude bit.
func (c *coder) encRefine(enc *mq.Encoder, plane uint) float64 {
	var dist float64
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
				enc.Encode(int(mag[i]>>plane&1), &c.cx[mrCtx(fl&rm[k])])
				dist += distRef(mag[i], plane)
				f[i] = fl | fRefined
			}
		}
	}
	return dist
}

// encRefineRaw is the arithmetic-bypass refinement pass: one raw magnitude
// bit per sample already significant before this plane.
func (c *coder) encRefineRaw(w *bitio.StuffWriter, plane uint) float64 {
	var dist float64
	f, mag, bw := c.flags, c.mag, c.bw
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
				// context, and every later refine pass is also bypassed.
				w.WriteBit(int(mag[i] >> plane & 1))
				dist += distRef(mag[i], plane)
			}
		}
	}
	return dist
}

// encCleanup runs the cleanup pass with run-length coding: full 4-sample
// columns with no significant state or neighborhood take the run-length
// shortcut; everything else left uncoded this plane is zero-coded.
func (c *coder) encCleanup(enc *mq.Encoder, plane uint) float64 {
	var dist float64
	f, mag, bw, zc := c.flags, c.mag, c.bw, c.zc
	rm := &c.rowMask
	for y0 := 0; y0 < c.h; y0 += 4 {
		rows := min(c.h-y0, 4)
		i0 := (y0+1)*bw + 1
		for x := 0; x < c.w; x++ {
			i := i0 + x
			y := 0
			if rows == 4 && (f[i]|f[i+bw]|f[i+2*bw]|f[i+3*bw]&rm[3])&(fSig|fVisited|fSigOth) == 0 {
				// Run-length mode: column of four, all insignificant,
				// unvisited, with no significant neighbours.
				first := 4 // position of first 1-bit, 4 = none
				for k := 0; k < 4; k++ {
					if mag[i+k*bw]>>plane&1 == 1 {
						first = k
						break
					}
				}
				if first == 4 {
					enc.Encode(0, &c.cx[ctxRL])
					continue
				}
				enc.Encode(1, &c.cx[ctxRL])
				enc.Encode(first>>1&1, &c.cx[ctxUNI])
				enc.Encode(first&1, &c.cx[ctxUNI])
				dist += c.encSign(enc, i+first*bw, plane, rm[first])
				y = first + 1
			}
			for ; y < rows; y++ {
				ii := i + y*bw
				fl := f[ii] & rm[y]
				if fl&(fSig|fVisited) != 0 {
					continue
				}
				bit := int(mag[ii] >> plane & 1)
				enc.Encode(bit, &c.cx[zc[fl&fSigOth]])
				if bit == 1 {
					dist += c.encSign(enc, ii, plane, rm[y])
				}
			}
		}
	}
	return dist
}

// encSegSym codes the segmentation symbol — the four decisions 1,0,1,0 (0xA)
// in the UNIFORM context — terminating a cleanup pass. A decoder that cannot
// reproduce it knows the segment is corrupt at or before this pass.
func (c *coder) encSegSym(enc *mq.Encoder) {
	enc.Encode(1, &c.cx[ctxUNI])
	enc.Encode(0, &c.cx[ctxUNI])
	enc.Encode(1, &c.cx[ctxUNI])
	enc.Encode(0, &c.cx[ctxUNI])
}

// TotalPasses returns the number of coding passes for a block with the given
// number of bit-planes (3 per plane, minus the two skipped passes of the
// most significant plane).
func TotalPasses(numBitplanes int) int {
	if numBitplanes <= 0 {
		return 0
	}
	return 3*numBitplanes - 2
}
