package jp2k

import (
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// Kept for bench/ only; deleted in the benchmark PR (ROADMAP item 7).

// DecodeRegionPlanarSource is DecodeRegion over a fresh scan of src, into a
// freshly allocated image. A caller decoding many windows of one stream
// builds a t2.Index once and calls DecodeRegion.
func (d *Decoder) DecodeRegionPlanarSource(src *t2.Source, region Rect, opts DecodeOptions) (*raster.Planar, error) {
	return d.decodeSource(src, opts, &region)
}
