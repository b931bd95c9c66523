package jp2k

import (
	"pj2k/internal/core"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// This file is the streaming decode surface: the codestream is read through a
// t2.Source (an io.ReaderAt end to end — only the main header, the tile-part
// chain and the selected tiles' bodies are ever read, each into a pooled
// buffer; resident bytes are one more ReaderAt, t2.BytesSource). A single
// plane is Comps[0] of the result at the call site.

// DecodeRegion reconstructs the requested window of the codestream ix
// indexes: tiles that do not intersect region are neither read from src,
// entropy-decoded nor transformed, which is what makes serving viewports out
// of a tiled gigapixel stream cheap. The main header and the tile-part chain
// come from ix, so nothing is re-scanned and a one-tile window costs one
// read. src is ix's source or a wrapper over the same bytes (a per-request
// ResilientSource, say). ix is only read, so any number of Decoders may
// decode from one Index concurrently. region is expressed in the output grid
// of a full decode at opts.DiscardLevels and is clamped to the image; the
// result is bit-identical to cropping a full decode for any worker count (the
// inverse inter-component transform is per-pixel, so it applies cleanly to
// windows). A resilient decode reports no container damage, since the index's
// scan was strict. The result is borrowed, not fresh: it is the Decoder's own
// output image, reshaped in place per call, so a warm call allocates nothing
// (the DamageReport aside), and it is valid only until the Decoder's next
// decode or Close. A caller that keeps it longer copies it out first.
func (d *Decoder) DecodeRegion(ix *t2.Index, src *t2.Source, region Rect, opts DecodeOptions) (*raster.Planar, error) {
	return d.decode(src, &scanned{p: ix.Params, spans: ix.Spans()}, opts, &region, &d.out)
}

// DecodePlanarSource reconstructs all components of a codestream, inverting
// the inter-component transform when the stream flags it. With DiscardLevels
// > 0 the result is the 1/2^n-scale image carried by the lower resolutions of
// the stream. The returned planes are freshly allocated and caller-owned.
func (d *Decoder) DecodePlanarSource(src *t2.Source, opts DecodeOptions) (*raster.Planar, error) {
	return d.decodeSource(src, opts, nil)
}

// DecodePlanarSource is the one-shot convenience over a throwaway Decoder on
// the shared default pool; see Decoder.DecodePlanarSource.
func DecodePlanarSource(src *t2.Source, opts DecodeOptions) (*raster.Planar, error) {
	return NewDecoderWithPool(core.Default()).DecodePlanarSource(src, opts)
}
