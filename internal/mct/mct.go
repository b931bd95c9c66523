// Package mct implements the multiple-component (inter-component) transforms
// of JPEG2000 — the first stage of the paper's Fig. 1 pipeline: the
// reversible color transform (RCT) used with the 5/3 path and the
// irreversible color transform (ICT, the YCbCr rotation) used with the 9/7
// path. Both operate in place on three equally sized planes.
//
// Each transform runs on the calling goroutine. The codecs parallelize it
// by dispatching row ranges of their own (jp2k's interComp), so the workers
// and pool arguments are accepted and ignored.
package mct

import (
	"fmt"

	"pj2k/internal/core"
	"pj2k/internal/raster"
)

// check validates that the three planes agree in size.
func check(r, g, b *raster.Image) error {
	if r.Width != g.Width || r.Width != b.Width ||
		r.Height != g.Height || r.Height != b.Height {
		return fmt.Errorf("mct: component size mismatch %dx%d / %dx%d / %dx%d",
			r.Width, r.Height, g.Width, g.Height, b.Width, b.Height)
	}
	return nil
}

// ForwardRCT applies the reversible color transform in place:
//
//	Y  = floor((R + 2G + B) / 4),  Cb = B - G,  Cr = R - G
//
// It is exactly invertible in integer arithmetic (ISO 15444-1 G.2).
func ForwardRCT(r, g, b *raster.Image, workers int, pool *core.Pool) error {
	if err := check(r, g, b); err != nil {
		return err
	}
	for y := 0; y < r.Height; y++ {
		rr, gr, br := r.Row(y), g.Row(y), b.Row(y)
		for x := range rr {
			R, G, B := rr[x], gr[x], br[x]
			yv := (R + 2*G + B) >> 2
			cb := B - G
			cr := R - G
			rr[x], gr[x], br[x] = yv, cb, cr
		}
	}
	return nil
}

// InverseRCT inverts ForwardRCT in place (planes hold Y, Cb, Cr).
func InverseRCT(yp, cb, cr *raster.Image, workers int, pool *core.Pool) error {
	if err := check(yp, cb, cr); err != nil {
		return err
	}
	for y := 0; y < yp.Height; y++ {
		yr, br, rr := yp.Row(y), cb.Row(y), cr.Row(y)
		for x := range yr {
			Y, Cb, Cr := yr[x], br[x], rr[x]
			G := Y - ((Cb + Cr) >> 2)
			R := Cr + G
			B := Cb + G
			yr[x], br[x], rr[x] = R, G, B
		}
	}
	return nil
}

// ICT coefficients (the standard Rec. 601 luma rotation).
const (
	ictYR, ictYG, ictYB = 0.299, 0.587, 0.114
	ictCbB              = 0.5 / (1 - ictYB)
	ictCrR              = 0.5 / (1 - ictYR)
	ictInvCrR           = 1.402
	ictInvCbG           = -0.344136
	ictInvCrG           = -0.714136
	ictInvCbB           = 1.772
)

// ForwardICT applies the irreversible YCbCr transform in place on float
// planes (the 9/7 path operates on floats anyway).
func ForwardICT(r, g, b []float64, workers int, pool *core.Pool) {
	for i := range r {
		R, G, B := r[i], g[i], b[i]
		// float64() rounds each product before it is summed, so no
		// architecture fuses it into an FMA (DESIGN.md §3).
		Y := float64(ictYR*R) + float64(ictYG*G) + float64(ictYB*B)
		r[i] = Y
		g[i] = ictCbB * (B - Y)
		b[i] = ictCrR * (R - Y)
	}
}

// InverseICT inverts ForwardICT in place (planes hold Y, Cb, Cr).
func InverseICT(yp, cb, cr []float64, workers int, pool *core.Pool) {
	for i := range yp {
		Y, Cb, Cr := yp[i], cb[i], cr[i]
		// Rounded products, as in ForwardICT.
		yp[i] = Y + float64(ictInvCrR*Cr)
		cb[i] = Y + float64(ictInvCbG*Cb) + float64(ictInvCrG*Cr)
		cr[i] = Y + float64(ictInvCbB*Cb)
	}
}
