package jp2k

import (
	"pj2k/internal/core"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// reduceDim halves a dimension d times with the transform's ceil convention.
func reduceDim(n, d int) int {
	for i := 0; i < d; i++ {
		n = (n + 1) / 2
	}
	return n
}

// TileGrid returns the reduced tile geometry of a stream with the given
// parameters after discard resolution reductions, as prefix sums: colW[tx]
// is the x origin of tile column tx in the reduced image and colW[ntx] the
// reduced image width; likewise rowH for rows. Tiles reduce independently
// with the transform's ceil-halving convention (a tile's reduced width is
// not simply tileW>>discard), so consumers addressing the reduced grid —
// tile servers mapping window requests onto tiles — must use this geometry
// rather than deriving their own.
func TileGrid(p t2.Params, discard int) (colW, rowH []int) {
	return tileGridInto(nil, nil, p, discard)
}

// tileGridInto is TileGrid writing into recycled prefix-sum slices.
func tileGridInto(colW, rowH []int, p t2.Params, discard int) ([]int, []int) {
	ntx, nty := p.NumTiles()
	colW = grow(colW, ntx+1)
	colW[0] = 0
	for tx := 0; tx < ntx; tx++ {
		x0 := tx * p.TileW
		x1 := min(x0+p.TileW, p.Width)
		colW[tx+1] = colW[tx] + reduceDim(x1-x0, discard)
	}
	rowH = grow(rowH, nty+1)
	rowH[0] = 0
	for ty := 0; ty < nty; ty++ {
		y0 := ty * p.TileH
		y1 := min(y0+p.TileH, p.Height)
		rowH[ty+1] = rowH[ty] + reduceDim(y1-y0, discard)
	}
	return colW, rowH
}

// Decode reconstructs an image from a codestream produced by Encode. With
// DiscardLevels > 0 the result is the 1/2^n-scale image carried by the lower
// resolutions of the stream. It is a convenience wrapper over a throwaway
// Decoder dispatching on the shared default worker pool (one-shot calls
// neither spawn nor leak workers); callers decoding repeatedly (servers,
// viewers) should hold a Decoder to amortize its pooled state.
func Decode(data []byte, opts DecodeOptions) (*raster.Image, error) {
	return NewDecoderWithPool(core.Default()).Decode(data, opts)
}
