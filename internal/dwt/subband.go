package dwt

import "fmt"

// BandType identifies a subband orientation. The tier-1 context tables
// depend on it.
type BandType int

const (
	LL BandType = iota
	HL          // horizontally high-pass
	LH          // vertically high-pass
	HH
)

func (b BandType) String() string {
	switch b {
	case LL:
		return "LL"
	case HL:
		return "HL"
	case LH:
		return "LH"
	case HH:
		return "HH"
	}
	return fmt.Sprintf("BandType(%d)", int(b))
}

// Subband describes one subband's rectangle in the Mallat layout produced by
// the forward transforms. Level counts down from the shallowest (1) to the
// deepest (= total decomposition levels); the LL band carries the deepest
// level.
type Subband struct {
	Type   BandType
	Level  int
	X0, Y0 int // inclusive
	X1, Y1 int // exclusive
}

// Width returns the band's width in samples.
func (s Subband) Width() int { return s.X1 - s.X0 }

// Height returns the band's height in samples.
func (s Subband) Height() int { return s.Y1 - s.Y0 }

// Empty reports whether the band has no samples (possible for degenerate
// image sizes).
func (s Subband) Empty() bool { return s.X1 <= s.X0 || s.Y1 <= s.Y0 }

// Subbands enumerates the subbands of a w x h image after `levels`
// decomposition levels, in resolution order: LL_levels first, then for each
// level from the deepest to the shallowest its HL, LH, HH bands. This is the
// order tier-2 emits packets in.
func Subbands(w, h, levels int) []Subband {
	return SubbandsAppend(make([]Subband, 0, 1+3*max(levels, 0)), w, h, levels)
}

// SubbandsAppend is Subbands appending into dst, so pooled callers can
// recycle the enumeration buffer (pass dst[:0]).
func SubbandsAppend(dst []Subband, w, h, levels int) []Subband {
	if levels == 0 {
		return append(dst, Subband{Type: LL, Level: 0, X1: w, Y1: h})
	}
	bands := dst
	llw, llh := levelDims(w, h, levels)
	bands = append(bands, Subband{Type: LL, Level: levels, X1: llw, Y1: llh})
	for l := levels; l >= 1; l-- {
		cw, ch := levelDims(w, h, l)   // LL region at this level
		pw, ph := levelDims(w, h, l-1) // parent region
		bands = append(bands,
			Subband{Type: HL, Level: l, X0: cw, Y0: 0, X1: pw, Y1: ch},
			Subband{Type: LH, Level: l, X0: 0, Y0: ch, X1: cw, Y1: ph},
			Subband{Type: HH, Level: l, X0: cw, Y0: ch, X1: pw, Y1: ph},
		)
	}
	return bands
}

// ResolutionBands returns the half-open range [lo, hi) of indices into
// Subbands(w, h, levels) that belong to resolution r: the LL band alone for
// r = 0, else the HL, LH, HH bands of level levels-r+1.
func ResolutionBands(r int) (lo, hi int) {
	return max(3*r-2, 0), 3*r + 1
}
