package t1

import "pj2k/internal/dwt"

// Neighborhood flag words: every sample carries a uint32 that aggregates the
// coding state of its 3x3 neighborhood, maintained incrementally — when a
// sample becomes significant, setSig updates the relevant bits in its eight
// neighbors' words once, instead of every context computation re-reading
// eight scattered neighbor flags per sample per pass. With the neighborhood
// packed into the low bits, the Annex D context functions collapse into
// 256-entry lookup tables built once at init (the OpenJPEG/Kakadu layout).
//
// Bit layout (directions name where the *neighbor* sits relative to the
// sample owning the word; fSigN set means "my northern neighbor is
// significant"):
//
//	0-3   diagonal neighbor significance (NE, SE, SW, NW)
//	4-7   primary neighbor significance  (N,  E,  S,  W)
//	8-11  primary neighbor sign          (N,  E,  S,  W; set = negative)
//	12    this sample is significant
//	13    this sample has been refined at least once
//	14    this sample was coded in the current plane's sig-prop pass
//	15    this sample's sign (set = negative): the encoder's input sign,
//	      the decoder's once decoded
const (
	fSigNE uint32 = 1 << 0
	fSigSE uint32 = 1 << 1
	fSigSW uint32 = 1 << 2
	fSigNW uint32 = 1 << 3
	fSigN  uint32 = 1 << 4
	fSigE  uint32 = 1 << 5
	fSigS  uint32 = 1 << 6
	fSigW  uint32 = 1 << 7
	fSgnN  uint32 = 1 << 8
	fSgnE  uint32 = 1 << 9
	fSgnS  uint32 = 1 << 10
	fSgnW  uint32 = 1 << 11

	fSig     uint32 = 1 << sigShift
	fRefined uint32 = 1 << 13
	fVisited uint32 = 1 << visShift
	fNeg     uint32 = 1 << negShift

	// Bit positions of the three per-sample flags the block write-out turns
	// into masks.
	sigShift = 12
	visShift = 14
	negShift = 15

	// fSigOth masks all eight neighbor-significance bits: nonzero iff any
	// 8-neighbor is significant.
	fSigOth = fSigNE | fSigSE | fSigSW | fSigNW | fSigN | fSigE | fSigS | fSigW
)

// zcLUT maps the eight neighbor-significance bits (flags & fSigOth) to the
// zero-coding context, one table per band orientation (indexed by
// dwt.BandType): the HL swap and the per-band switch of Annex D Table D.1
// are baked into the tables, so the per-sample cost is one masked load.
var zcLUT [4][256]uint8

// scLUT maps the primary-neighbor significance+sign bits ((flags >> 4) &
// 0xFF) to the sign-coding context and XOR bit of Table D.3, packed as
// ctx | xorbit<<7.
var scLUT [256]uint8

func init() {
	for _, band := range []dwt.BandType{dwt.LL, dwt.HL, dwt.LH, dwt.HH} {
		for m := 0; m < 256; m++ {
			zcLUT[band][m] = zcFromFlags(band, uint32(m))
		}
	}
	for m := 0; m < 256; m++ {
		ctx, xorbit := scFromFlags(uint32(m) << 4)
		scLUT[m] = uint8(ctx) | uint8(xorbit)<<7
	}
}

// setSig marks sample i significant with sign neg (1 = negative, 0 =
// positive) and pushes the significance/sign bits into its eight neighbors'
// flag words — the one-time update that replaces per-context neighbor
// gathering. The sign arrives as a 0/1 word and is multiplied into the sign
// bits, so a random sign costs no branch. Writes that fall on the border ring
// of the (w+2)x(h+2) array land in cells never coded, so no bounds checks are
// needed.
func (c *coder) setSig(i int, neg uint32) {
	f := c.flags
	bw := c.bw
	f[i-bw-1] |= fSigSE // the NW neighbor sees this sample to its south-east
	f[i-bw+1] |= fSigSW
	f[i+bw-1] |= fSigNE
	f[i+bw+1] |= fSigNW
	f[i-bw] |= fSigS | neg*fSgnS
	f[i-1] |= fSigE | neg*fSgnE
	f[i+1] |= fSigW | neg*fSgnW
	f[i+bw] |= fSigN | neg*fSgnN
	f[i] |= fSig | neg*fNeg
}

// mrCtx returns the magnitude-refinement context (Table D.2) from a flag
// word: 16 once refined, else 15 with any significant neighbor, else 14.
func mrCtx(fl uint32) int {
	if fl&fRefined != 0 {
		return ctxMR0 + 2
	}
	if fl&fSigOth != 0 {
		return ctxMR0 + 1
	}
	return ctxMR0
}

// zcFromFlags is the build-time reference for zcLUT: the neighbor counts and
// the band-orientation switch of Annex D Table D.1, computed from the
// neighbor-significance bits of a flag word.
func zcFromFlags(band dwt.BandType, neigh uint32) uint8 {
	bit := func(m uint32) int {
		if neigh&m != 0 {
			return 1
		}
		return 0
	}
	h := bit(fSigW) + bit(fSigE)
	v := bit(fSigN) + bit(fSigS)
	d := bit(fSigNW) + bit(fSigNE) + bit(fSigSW) + bit(fSigSE)
	if band == dwt.HL {
		h, v = v, h
	}
	if band == dwt.HH {
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
	}
	// LL, LH (and HL after the swap above).
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

// scFromFlags is the build-time reference for scLUT: clamped horizontal and
// vertical sign contributions and Table D.3.
func scFromFlags(fl uint32) (ctx, xorbit int) {
	contrib := func(sig, sgn uint32) int {
		if fl&sig == 0 {
			return 0
		}
		if fl&sgn != 0 {
			return -1
		}
		return 1
	}
	h := contrib(fSigW, fSgnW) + contrib(fSigE, fSgnE)
	if h > 1 {
		h = 1
	} else if h < -1 {
		h = -1
	}
	v := contrib(fSigN, fSgnN) + contrib(fSigS, fSgnS)
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
	default: // h == -1
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
