package t1

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/quant"
)

// Poison values a plane starts with: a sample that still holds one after a
// decode was never written. The float one is a NaN with a payload no
// arithmetic produces, compared by bits.
const (
	intPoison   = int32(-0x5A5A5A5B)
	floatPoison = 0x7FF8DEADBEEF0001
)

// unscaleROIOracle is the decoder's former separate MAXSHIFT sweep over a
// decoded block, kept as the reference for the fused form: magnitudes at or
// above 2^s belong to the ROI and are shifted back down.
func unscaleROIOracle(vals []int32, s int) {
	thr := int32(1) << uint(s)
	for i, v := range vals {
		m := v
		if m < 0 {
			m = -m
		}
		if m >= thr {
			m >>= uint(s)
			if v < 0 {
				m = -m
			}
			vals[i] = m
		}
	}
}

// checkInto decodes in through DecodeInto into an int and a float plane, each
// poisoned and larger than the block on every side, and checks both against
// want (the block's coefficients before ROI un-scaling, stride W): the int
// rectangle must equal want with MAXSHIFT undone by the oracle, the float
// rectangle must equal quant.Inverse of that bit for bit, and every sample
// outside the rectangle must keep its poison. It returns the SegStats of the
// int decode (the float one must agree).
func checkInto(t *testing.T, bd *BlockDecoder, name string, in *BlockIn, resilient bool, want []int32, roi int) SegStats {
	t.Helper()
	w, h := in.W, in.H
	const ox, oy, padX, padY = 3, 2, 5, 3
	stride, ph := ox+w+padX, oy+h+padY
	off := oy*stride + ox
	ref := append([]int32(nil), want...)
	if roi > 0 {
		unscaleROIOracle(ref, roi)
	}

	ip := make([]int32, stride*ph)
	for i := range ip {
		ip[i] = intPoison
	}
	st, err := bd.DecodeInto(in, &Dest{Int: ip, Off: off, Stride: stride, ROIShift: roi}, resilient)
	if err != nil {
		t.Fatalf("%s: int decode: %v", name, err)
	}
	for y := 0; y < ph; y++ {
		for x := 0; x < stride; x++ {
			got := ip[y*stride+x]
			exp := intPoison
			if x >= ox && x < ox+w && y >= oy && y < oy+h {
				exp = ref[(y-oy)*w+x-ox]
			}
			if got != exp {
				t.Fatalf("%s: int plane (%d,%d) = %d, want %d", name, x, y, got, exp)
			}
		}
	}

	const step = 0.0371
	fp := make([]float64, stride*ph)
	fexp := make([]float64, stride*ph)
	for i := range fp {
		fp[i] = math.Float64frombits(floatPoison)
		fexp[i] = fp[i]
	}
	sub := dwt.Subband{X0: ox, Y0: oy, X1: ox + w, Y1: oy + h}
	quant.Inverse(ref, w, sub, step, fexp, stride, 1)
	fst, err := bd.DecodeInto(in, &Dest{Float: fp, Off: off, Stride: stride, Step: step, ROIShift: roi}, resilient)
	if err != nil {
		t.Fatalf("%s: float decode: %v", name, err)
	}
	if fst != st {
		t.Fatalf("%s: float decode stats %+v, int decode %+v", name, fst, st)
	}
	for i := range fp {
		if g, e := math.Float64bits(fp[i]), math.Float64bits(fexp[i]); g != e {
			t.Fatalf("%s: float plane (%d,%d) bits %#x, want %#x", name, i%stride, i/stride, g, e)
		}
	}
	return st
}

// arenaDecode is the DecodeBlock adapter's output for in, copied out of the
// arena.
func arenaDecode(t *testing.T, bd *BlockDecoder, in *BlockIn, resilient bool) []int32 {
	t.Helper()
	out, _, err := bd.DecodeBlock(in, resilient)
	if err != nil {
		t.Fatalf("DecodeBlock: %v", err)
	}
	out = append([]int32(nil), out...)
	bd.Release()
	return out
}

// blockIn is the decode input for the first np passes of eb.
func blockIn(eb *EncodedBlock, np int) BlockIn {
	data := eb.Data
	if np > 0 {
		if r := eb.Passes[np-1].Rate; r < len(data) {
			data = data[:r]
		}
	}
	return BlockIn{
		W: eb.W, H: eb.H, Band: eb.Band,
		NumBitplanes: eb.NumBitplanes,
		Data:         data,
		NPasses:      np,
		Modes:        eb.Modes,
		SegEnds:      eb.SegmentEnds(nil, np),
	}
}

// TestDecodeIntoPlane pins the into-plane write for every coder mode: at any
// pass count, with and without MAXSHIFT, the block's rectangle of an int plane
// equals the DecodeBlock adapter's output (ROI undone as the former separate
// sweep did), the float plane equals quant.Inverse of it bit for bit, and
// nothing outside the rectangle is written.
func TestDecodeIntoPlane(t *testing.T) {
	co := NewCoder()
	bd := NewBlockDecoder()
	const roi = 7
	for _, m := range modeCombos {
		co.Modes = m
		for _, sz := range [][2]int{{32, 32}, {13, 7}, {1, 1}} {
			w, h := sz[0], sz[1]
			plain := randBlock(w, h, 20000, 0.6, int64(w*31+h))
			// The ROI block: a background below 2^roi with a scaled-up
			// foreground, as the MAXSHIFT encoder leaves it.
			scaled := randBlock(w, h, 1<<roi-1, 0.6, int64(w*37+h))
			for i := range scaled {
				if i%w < w/2+1 {
					scaled[i] <<= roi
				}
			}
			for _, c := range []struct {
				data []int32
				roi  int
			}{{plain, 0}, {scaled, roi}} {
				eb := co.Encode(c.data, w, h, w, dwt.HL)
				np := len(eb.Passes)
				for _, n := range []int{1, np / 2, np} {
					if n < 1 || n > np {
						continue // a block with no coded passes has no prefixes
					}
					in := blockIn(eb, n)
					name := fmt.Sprintf("%s %dx%d roi=%d passes %d/%d", modeName(m), w, h, c.roi, n, np)
					checkInto(t, bd, name, &in, false, arenaDecode(t, bd, &in, false), c.roi)
				}
			}
			co.Release()
		}
	}
}

// TestDecodeIntoEarlyReturns covers every path of DecodeInto that returns
// before the pass loop's fill: each must still write the whole rectangle —
// zeros, or the clean prefix a concealment keeps — since the decoder's pooled
// planes are never cleared.
func TestDecodeIntoEarlyReturns(t *testing.T) {
	co := NewCoder()
	bd := NewBlockDecoder()
	zero := make([]int32, 32*32)

	co.Modes = Modes{}
	eb := co.Encode(randBlock(32, 32, 20000, 0.6, 11), 32, 32, 32, dwt.LH)
	full := blockIn(eb, len(eb.Passes))

	noPlanes := full
	noPlanes.NumBitplanes = 0
	noPasses := blockIn(eb, 0)
	negPasses := full
	negPasses.NPasses = -1
	deep := full
	deep.NumBitplanes = 32
	// The coders driven far past a one-byte segment: without segmentation
	// symbols the overrun is the only corruption signal.
	overrun := full
	overrun.Data = full.Data[:1]

	co.Modes = Modes{Bypass: true, TermAll: true}
	ebT := co.Encode(randBlock(32, 32, 20000, 0.6, 12), 32, 32, 32, dwt.LH)
	badLayout := blockIn(ebT, len(ebT.Passes))
	badLayout.SegEnds = badLayout.SegEnds[:1]

	for _, c := range []struct {
		name      string
		in        BlockIn
		resilient bool
		concealed bool
	}{
		{"NumBitplanes 0", noPlanes, false, false},
		{"npasses 0", noPasses, false, false},
		{"negative npasses", negPasses, true, true},
		{"32 planes", deep, true, true},
		{"overrun", overrun, true, true},
		{"bad segment layout", badLayout, true, true},
	} {
		st := checkInto(t, bd, c.name, &c.in, c.resilient, zero, 0)
		if st.Concealed != c.concealed {
			t.Fatalf("%s: stats %+v, want concealed=%v", c.name, st, c.concealed)
		}
		if got := arenaDecode(t, bd, &c.in, c.resilient); fmt.Sprint(got) != fmt.Sprint(zero) {
			t.Fatalf("%s: DecodeBlock adapter output not all zero", c.name)
		}
	}

	// Segmentation-symbol mismatches: corrupt one byte of one cleanup pass's
	// segment (every pass is its own segment under TermAll). A mismatch at
	// the first cleanup keeps nothing; a later one keeps the clean prefix,
	// which must equal a clean decode truncated there.
	co.Modes = Modes{TermAll: true, SegSym: true}
	data := randBlock(32, 32, 20000, 0.6, 13)
	ebS := co.Encode(data, 32, 32, 32, dwt.HH)
	np := len(ebS.Passes)
	ends := ebS.SegmentEnds(nil, np)
	sawZero, sawPrefix := false, false
	for pass := 0; pass < np; pass += 3 { // the cleanup passes
		lo := 0
		if pass > 0 {
			lo = ends[pass-1]
		}
		for b := lo; b < ends[pass]; b++ {
			in := blockIn(ebS, np)
			in.Data = append([]byte(nil), ebS.Data...)
			in.Data[b] ^= 0xA5
			// The clean prefix ends at the cleanup before the corrupted one;
			// a flip that keeps this pass's symbol is no test of it.
			good := max(pass-2, 0)
			if _, st, _ := bd.DecodeBlock(&in, true); !st.Concealed || st.DroppedPasses != np-good {
				bd.Release()
				continue
			}
			bd.Release()
			want := zero
			if good > 0 {
				clean := blockIn(ebS, good)
				want = arenaDecode(t, bd, &clean, false)
				sawPrefix = true
			} else {
				sawZero = true
			}
			checkInto(t, bd, fmt.Sprintf("segsym mismatch at pass %d (byte %d)", pass, b), &in, true, want, 0)
			break
		}
	}
	if !sawZero || !sawPrefix {
		t.Fatalf("no corruption produced both mismatch kinds (first cleanup %v, later %v)", sawZero, sawPrefix)
	}
}

// TestDecodeIntoDigest pins what DecodeInto writes, bit for bit: a fixed
// corpus of blocks (sizes, bands and magnitudes that exercise every stripe
// shape, with and without a MAXSHIFT-scaled foreground) is encoded in every
// coder mode and decoded at every pass count, into an int and a dequantized
// float plane, and the SHA-256 of all of it must not move. Each truncation
// point ends on a different pass kind, so the digest covers every midpoint
// rule. A resilient decode of a corrupted copy of each block rides along, so
// the concealment replay's output is pinned too.
func TestDecodeIntoDigest(t *testing.T) {
	co := NewCoder()
	bd := NewBlockDecoder()
	h := sha256.New()
	var b [8]byte
	const roi, step = 6, 0.0371
	for _, m := range modeCombos {
		co.Modes = m
		for bi, sz := range [][3]int{{32, 32, 30000}, {13, 7, 900}, {64, 5, 5000}, {1, 1, 77}} {
			w, hh := sz[0], sz[1]
			band := bandTypes[bi%len(bandTypes)]
			plain := randBlock(w, hh, int32(sz[2]), 0.7, int64(w*131+hh))
			scaled := randBlock(w, hh, 1<<roi-1, 0.7, int64(w*137+hh))
			for i := range scaled {
				if (i/w)%3 == 0 {
					scaled[i] <<= roi
				}
			}
			for _, c := range []struct {
				data []int32
				roi  int
			}{{plain, 0}, {scaled, roi}} {
				eb := co.Encode(c.data, w, hh, w, band)
				np := len(eb.Passes)
				ip := make([]int32, w*hh)
				fp := make([]float64, w*hh)
				decode := func(in *BlockIn, resilient bool) {
					st, err := bd.DecodeInto(in, &Dest{Int: ip, Stride: w, ROIShift: c.roi}, resilient)
					if err != nil {
						t.Fatalf("%s %dx%d: %v", modeName(m), w, hh, err)
					}
					if _, err := bd.DecodeInto(in, &Dest{Float: fp, Stride: w, Step: step, ROIShift: c.roi}, resilient); err != nil {
						t.Fatalf("%s %dx%d: %v", modeName(m), w, hh, err)
					}
					binary.LittleEndian.PutUint64(b[:], uint64(st.DroppedPasses))
					h.Write(b[:])
					for i, v := range ip {
						binary.LittleEndian.PutUint32(b[:], uint32(v))
						h.Write(b[:4])
						binary.LittleEndian.PutUint64(b[:], math.Float64bits(fp[i]))
						h.Write(b[:])
					}
				}
				for n := 0; n <= np; n++ {
					in := blockIn(eb, n)
					decode(&in, false)
				}
				in := blockIn(eb, np)
				in.Data = append([]byte(nil), in.Data...)
				if len(in.Data) > 0 {
					in.Data[len(in.Data)/2] ^= 0x5A
				}
				decode(&in, true)
			}
			co.Release()
		}
	}
	const want = "c0213980d3e66ac1c3636d986b194299b1a221e599f30acd821373fa09a1af5c"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("DecodeInto digest %s, want %s", got, want)
	}
}

// fillReference is the block write-out as it was before it became
// branch-free, kept as the oracle for fill: per sample it branches on the
// significance, visited and sign bits and on the ROI threshold.
func fillReference(c *coder, dst *Dest, w, h, nbp, passes int) {
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

// TestFillMatchesReference runs random coder states through fill and
// fillReference: every pass count from 0 to TotalPasses, so every kind of
// last pass and both midpoints of a significance pass ending the decode; ROI
// shift 0 and 5; int and float planes at odd offsets and strides. The two
// must write the same plane, floats equal by bits (a -0 where the reference
// writes +0 fails), and leave everything outside the rectangle alone.
// Magnitudes span the whole int32 range at 31 planes, so the wrapping
// midpoint addition is covered too.
func TestFillMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	bd := NewBlockDecoder()
	c := &bd.c
	for trial := 0; trial < 40; trial++ {
		w, h := 1+rng.Intn(19), 1+rng.Intn(13)
		nbp := 1 + rng.Intn(31)
		if trial%8 == 0 {
			nbp = 31
		}
		c.reset(w, h, bandTypes[trial%len(bandTypes)])
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				i := c.idx(x, y)
				c.flags[i] = rng.Uint32() & 0xFFFF
				c.mag[i] = rng.Int31n(int32(uint32(1)<<nbp - 1)) // nbp 31: up to 2^31-2
			}
		}
		step := 0.01 + 3*rng.Float64()
		for passes := 0; passes <= TotalPasses(nbp); passes++ {
			for _, roi := range []int{0, 5} {
				for _, float := range []bool{false, true} {
					ox, oy := 1+2*rng.Intn(3), 1+2*rng.Intn(2)
					stride := ox + w + 1 + 2*rng.Intn(3)
					if stride%2 == 0 {
						stride++
					}
					n := (oy + h + 1) * stride
					dst := func() *Dest {
						d := &Dest{Off: oy*stride + ox, Stride: stride, Step: step, ROIShift: roi}
						if float {
							d.Float = make([]float64, n)
							for i := range d.Float {
								d.Float[i] = math.Float64frombits(floatPoison)
							}
						} else {
							d.Int = make([]int32, n)
							for i := range d.Int {
								d.Int[i] = intPoison
							}
						}
						return d
					}
					got, want := dst(), dst()
					bd.fill(got, w, h, nbp, passes)
					fillReference(c, want, w, h, nbp, passes)
					for i := 0; i < n; i++ {
						if float {
							if g, e := math.Float64bits(got.Float[i]), math.Float64bits(want.Float[i]); g != e {
								t.Fatalf("trial %d %dx%d nbp %d passes %d roi %d: float sample %d bits %#x, want %#x",
									trial, w, h, nbp, passes, roi, i, g, e)
							}
						} else if got.Int[i] != want.Int[i] {
							t.Fatalf("trial %d %dx%d nbp %d passes %d roi %d: int sample %d = %d, want %d",
								trial, w, h, nbp, passes, roi, i, got.Int[i], want.Int[i])
						}
					}
				}
			}
		}
	}
}
