package jp2k

import (
	"pj2k/internal/dwt"
)

// applyROI implements the MAXSHIFT region-of-interest method: every
// coefficient whose spatial footprint intersects the ROI rectangle is
// scaled up by s bit-planes, where 2^s exceeds every background magnitude.
// The decoder then recognizes ROI coefficients purely by magnitude — no
// mask is transmitted, only s (in the RGN marker). Returns the shift used
// (0 if ROI coding is not possible within the integer headroom).
//
// units hold the already-transformed (and, for 9/7, quantized) coefficients;
// each unit's tile layout places it in the image.
func applyROI(units []*tileEnc, roi ROIRect, o Options) int {
	// Background maximum magnitude across all units and bands.
	var maxMag int32
	for _, te := range units {
		forEachBandOf(te, o, func(b dwt.Subband, data []int32, stride int) {
			for y := 0; y < b.Height(); y++ {
				row := data[y*stride : y*stride+b.Width()]
				for _, v := range row {
					if v < 0 {
						v = -v
					}
					if v > maxMag {
						maxMag = v
					}
				}
			}
		})
	}
	if maxMag == 0 {
		return 0
	}
	nbp := 0
	for m := maxMag; m > 0; m >>= 1 {
		nbp++
	}
	s := nbp
	if nbp+s > 30 {
		s = 30 - nbp
	}
	if s <= 0 {
		return 0
	}
	for _, te := range units {
		// ROI in tile coordinates.
		rx0, ry0 := roi.X0-te.lay.X0, roi.Y0-te.lay.Y0
		rx1, ry1 := roi.X1-te.lay.X0, roi.Y1-te.lay.Y0
		if rx1 <= 0 || ry1 <= 0 || rx0 >= te.lay.W || ry0 >= te.lay.H {
			continue
		}
		forEachBandOf(te, o, func(b dwt.Subband, data []int32, stride int) {
			l := b.Level
			if b.Type == dwt.LL {
				l = o.Levels
			}
			// Footprint of the ROI in band coordinates, expanded by the
			// filter support.
			const margin = 3
			fx0 := min(max((rx0>>uint(l))-margin, 0), b.Width())
			fy0 := min(max((ry0>>uint(l))-margin, 0), b.Height())
			fx1 := min(max(((rx1-1)>>uint(l))+margin+1, 0), b.Width())
			fy1 := min(max(((ry1-1)>>uint(l))+margin+1, 0), b.Height())
			for y := fy0; y < fy1; y++ {
				row := data[y*stride : y*stride+b.Width()]
				for x := fx0; x < fx1; x++ {
					row[x] <<= uint(s)
				}
			}
		})
	}
	return s
}

// forEachBandOf visits one unit's bands, handing out the coefficient
// storage for each (the Mallat plane for 5/3, the dense per-band buffers
// for 9/7).
func forEachBandOf(te *tileEnc, o Options, fn func(b dwt.Subband, data []int32, stride int)) {
	for bi, b := range te.lay.Subbands {
		if b.Empty() {
			continue
		}
		if o.Kernel == dwt.Rev53 {
			off := b.Y0*te.intPlane.Stride + b.X0
			fn(b, te.intPlane.Pix[off:], te.intPlane.Stride)
		} else {
			fn(b, te.bandInts[bi], b.Width())
		}
	}
}
