package jp2k

import (
	"fmt"

	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// EncodeColor compresses an RGB image (three equally sized planes) into a
// standard Csiz=3 codestream with the inter-component transform applied. With
// Kernel Rev53 the reversible color transform is used and the result is
// lossless; with Irr97 the YCbCr rotation is applied and LayerBPP gives the
// total bitrate across components (split luma-heavy). Thin wrapper over
// Encoder.EncodePlanar with MCT on.
func EncodeColor(r, g, b *raster.Image, opts Options) ([]byte, *EncodeStats, error) {
	opts.MCT = true
	return EncodePlanar(raster.RGB(r, g, b), opts)
}

// DecodeColor reconstructs the three RGB planes of a standard Csiz=3
// codestream (from EncodeColor / EncodePlanar with MCT).
func DecodeColor(data []byte, opts DecodeOptions) (r, g, b *raster.Image, err error) {
	pl, err := DecodePlanarSource(t2.BytesSource(data), opts)
	if err != nil {
		return nil, nil, nil, err
	}
	if pl.NComp() != 3 {
		return nil, nil, nil, fmt.Errorf("jp2k: %d-component stream is not a color image", pl.NComp())
	}
	return pl.Comps[0], pl.Comps[1], pl.Comps[2], nil
}
