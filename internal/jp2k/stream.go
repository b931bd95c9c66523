package jp2k

import (
	"pj2k/internal/core"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// This file is the streaming/zero-copy decode surface: Source variants read
// the codestream through a t2.Source (an io.ReaderAt end to end — only the
// main header, the tile-part chain and the selected tiles' bodies are ever
// read; resident bytes go through t2.BytesSource and are aliased, not
// copied), and Into variants write the decoded window straight into
// caller-owned strided buffers instead of allocating planes. A single plane
// is Comps[0] of the result, or a one-element dst slice, at the call site.

// DecodePlanarSource reconstructs all components of a codestream, inverting
// the inter-component transform when the stream flags it. With DiscardLevels
// > 0 the result is the 1/2^n-scale image carried by the lower resolutions of
// the stream. The returned planes are freshly allocated and caller-owned.
func (d *Decoder) DecodePlanarSource(src *t2.Source, opts DecodeOptions) (*raster.Planar, error) {
	return d.decode(src, opts, nil, false, nil)
}

// DecodeRegionPlanarSource reconstructs only the requested window: tiles that
// do not intersect region are neither read from the source, entropy-decoded
// nor transformed, which is what makes serving viewports out of a tiled
// gigapixel stream cheap. region is expressed in the output grid of a full
// decode at opts.DiscardLevels and is clamped to the image; the result is
// bit-identical to cropping a full decode for any worker count (the inverse
// inter-component transform is per-pixel, so it applies cleanly to windows).
func (d *Decoder) DecodeRegionPlanarSource(src *t2.Source, region Rect, opts DecodeOptions) (*raster.Planar, error) {
	return d.decode(src, opts, &region, false, nil)
}

// DecodePlanarInto decodes into caller-owned views, one per component, each
// exactly the decoded image's size (Width x Height at opts.DiscardLevels);
// offset and stride are the caller's business — decoding into a sub-rectangle
// of a larger mosaic buffer is the intended use. Samples of a view's backing
// buffer outside the view are never touched. Output is pixel-identical to
// DecodePlanarSource for any view geometry.
func (d *Decoder) DecodePlanarInto(dst []raster.Strided, src *t2.Source, opts DecodeOptions) error {
	_, err := d.decode(src, opts, nil, false, dst)
	return err
}

// DecodeRegionPlanarInto is DecodePlanarInto for a window: each view must be
// exactly the clamped region's size. Only the window's tiles are read and
// decoded, and only the views' samples are written — the bounded-memory
// primitive for walking a huge image window by window through one recycled
// buffer.
func (d *Decoder) DecodeRegionPlanarInto(dst []raster.Strided, src *t2.Source, region Rect, opts DecodeOptions) error {
	_, err := d.decode(src, opts, &region, false, dst)
	return err
}

// DecodePlanarSource is the one-shot convenience over a throwaway Decoder on
// the shared default pool; see Decoder.DecodePlanarSource.
func DecodePlanarSource(src *t2.Source, opts DecodeOptions) (*raster.Planar, error) {
	return NewDecoderWithPool(core.Default()).DecodePlanarSource(src, opts)
}
