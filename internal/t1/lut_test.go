package t1

import (
	"testing"

	"pj2k/internal/dwt"
)

// Neighbor positions for the reference implementations, by index into a
// state vector: 0=NW 1=N 2=NE 3=W 4=E 5=SW 6=S 7=SE. States: 0 =
// insignificant, 1 = significant positive, 2 = significant negative.
const (
	nNW = iota
	nN
	nNE
	nW
	nE
	nSW
	nS
	nSE
)

// refZC is an independent transcription of the pre-flag-word zcContext: the
// neighbor significance counts and the per-band switch of Annex D Table D.1,
// computed from an explicit neighbor-state vector rather than flag bits.
func refZC(band dwt.BandType, st [8]int) int {
	sig := func(i int) int {
		if st[i] != 0 {
			return 1
		}
		return 0
	}
	h := sig(nW) + sig(nE)
	v := sig(nN) + sig(nS)
	d := sig(nNW) + sig(nNE) + sig(nSW) + sig(nSE)
	if band == dwt.HL {
		h, v = v, h
	}
	switch band {
	case dwt.HH:
		switch {
		case d >= 3:
			return 8
		case d == 2:
			if h+v >= 1 {
				return 7
			}
			return 6
		case d == 1:
			switch {
			case h+v >= 2:
				return 5
			case h+v == 1:
				return 4
			default:
				return 3
			}
		default:
			switch {
			case h+v >= 2:
				return 2
			case h+v == 1:
				return 1
			default:
				return 0
			}
		}
	default:
		switch {
		case h == 2:
			return 8
		case h == 1:
			switch {
			case v >= 1:
				return 7
			case d >= 1:
				return 6
			default:
				return 5
			}
		default:
			switch {
			case v == 2:
				return 4
			case v == 1:
				return 3
			case d >= 2:
				return 2
			case d == 1:
				return 1
			default:
				return 0
			}
		}
	}
}

// refSC is an independent transcription of the pre-flag-word scContext
// (Table D.3).
func refSC(st [8]int) (ctx, xorbit int) {
	contrib := func(i int) int {
		switch st[i] {
		case 1:
			return 1
		case 2:
			return -1
		}
		return 0
	}
	h := contrib(nW) + contrib(nE)
	if h > 1 {
		h = 1
	} else if h < -1 {
		h = -1
	}
	v := contrib(nN) + contrib(nS)
	if v > 1 {
		v = 1
	} else if v < -1 {
		v = -1
	}
	switch {
	case h == 1:
		switch v {
		case 1:
			return 13, 0
		case 0:
			return 12, 0
		default:
			return 11, 0
		}
	case h == 0:
		switch v {
		case 1:
			return 10, 0
		case 0:
			return 9, 0
		default:
			return 10, 1
		}
	default:
		switch v {
		case 1:
			return 11, 1
		case 0:
			return 12, 1
		default:
			return 13, 1
		}
	}
}

// refMR is an independent transcription of the pre-flag-word mrContext
// (Table D.2).
func refMR(refined bool, st [8]int) int {
	if refined {
		return 16
	}
	for _, s := range st {
		if s != 0 {
			return 15
		}
	}
	return 14
}

// neighborOffsets maps the state-vector index to the (dx, dy) of that
// neighbor around a center sample.
var neighborOffsets = [8][2]int{
	{-1, -1}, {0, -1}, {1, -1}, // NW N NE
	{-1, 0}, {1, 0}, // W E
	{-1, 1}, {0, 1}, {1, 1}, // SW S SE
}

// TestFlagWordContextsMatchReference exhaustively enumerates all 3^8 = 6561
// neighborhood configurations (each of the 8 neighbors absent, positive or
// negative), drives them through setSig — the incremental flag-word update —
// and checks that the LUT-derived zero-coding, sign-coding and refinement
// contexts match the independent per-neighbor reference transcribed from the
// pre-LUT implementation. This is the proof that the table-driven rewrite
// computes exactly the contexts the old code did, for every reachable
// neighborhood.
func TestFlagWordContextsMatchReference(t *testing.T) {
	bands := []dwt.BandType{dwt.LL, dwt.HL, dwt.LH, dwt.HH}
	var c coder
	for cfg := 0; cfg < 6561; cfg++ {
		var st [8]int
		v := cfg
		for i := range st {
			st[i] = v % 3
			v /= 3
		}
		c.reset(3, 3, dwt.LL)
		for i, s := range st {
			if s != 0 {
				dx, dy := neighborOffsets[i][0], neighborOffsets[i][1]
				c.setSig(c.idx(1+dx, 1+dy), uint32(s>>1)) // state 2 is negative
			}
		}
		fl := c.flags[c.idx(1, 1)]
		for _, band := range bands {
			if got, want := int(zcLUT[band][fl&fSigOth]), refZC(band, st); got != want {
				t.Fatalf("cfg %d band %v: zc context %d, want %d (flags %#x)", cfg, band, got, want, fl)
			}
		}
		sc := scLUT[(fl>>4)&0xFF]
		wantCtx, wantXor := refSC(st)
		if got := int(sc & 0x1F); got != wantCtx {
			t.Fatalf("cfg %d: sc context %d, want %d (flags %#x)", cfg, got, wantCtx, fl)
		}
		if got := int(sc >> 7); got != wantXor {
			t.Fatalf("cfg %d: sc xorbit %d, want %d (flags %#x)", cfg, got, wantXor, fl)
		}
		if got, want := mrCtx(fl), refMR(false, st); got != want {
			t.Fatalf("cfg %d: mr context %d, want %d (flags %#x)", cfg, got, want, fl)
		}
		if got := mrCtx(fl | fRefined); got != 16 {
			t.Fatalf("cfg %d: refined mr context %d, want 16", cfg, got)
		}
	}
}

// TestSetSigSymmetry spot-checks the neighbor bit directions: a significant
// sample must appear in each neighbor's word under the opposite direction
// bit, with the sign bit present only on the four primary neighbors.
func TestSetSigSymmetry(t *testing.T) {
	var c coder
	for _, neg := range []bool{false, true} {
		c.reset(3, 3, dwt.LL)
		var sgn uint32
		if neg {
			sgn = 1
		}
		c.setSig(c.idx(1, 1), sgn)
		check := func(x, y int, sig, sgn uint32) {
			t.Helper()
			fl := c.flags[c.idx(x, y)]
			if fl&sig == 0 {
				t.Fatalf("neighbor (%d,%d): significance bit %#x not set (flags %#x)", x, y, sig, fl)
			}
			if sgn != 0 {
				if got := fl&sgn != 0; got != neg {
					t.Fatalf("neighbor (%d,%d): sign bit %#x = %v, want %v", x, y, sgn, got, neg)
				}
			}
		}
		check(1, 0, fSigS, fSgnS) // sample to my south is significant
		check(1, 2, fSigN, fSgnN)
		check(0, 1, fSigE, fSgnE)
		check(2, 1, fSigW, fSgnW)
		check(0, 0, fSigSE, 0)
		check(2, 0, fSigSW, 0)
		check(0, 2, fSigNE, 0)
		check(2, 2, fSigNW, 0)
		if c.flags[c.idx(1, 1)]&fSig == 0 {
			t.Fatal("center not marked significant")
		}
	}
}
