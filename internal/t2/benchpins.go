package t2

import (
	"io"

	"pj2k/internal/dwt"
)

// Kept for bench/ only; deleted in the benchmark PR (ROADMAP item 7).

// ScanCodestream is the strict Scanner.Scan on a fresh Scanner: checked
// Params and one tile-part body span per tile of the grid, in chain order.
func ScanCodestream(src *Source) (Params, []TileSpan, error) {
	p, spans, _, err := new(Scanner).Scan(src, false)
	return p, spans, err
}

// DecodeTileCompsPackets is the strict DecodePackets that also returns the
// bytes consumed.
func (tc *TileCoder) DecodeTileCompsPackets(comps [][]BandBlocks, levels, nlayers int,
	data []byte, dec [][]DecodedBlock) ([][]DecodedBlock, int, error) {

	dec, pos, _, err := tc.walkPackets(comps, levels, nlayers, data, dec, false, nil)
	return dec, pos, err
}

// MakeGrid splits a subband into code-blocks of at most cbw x cbh samples.
func MakeGrid(band dwt.Subband, cbw, cbh int) Grid {
	var g Grid
	g.Reshape(band, cbw, cbh)
	return g
}

// Tile is tile ti's packet map, built through the source NewIndex scanned.
func (ix *Index) Tile(ti int) (*TileIndex, error) {
	return ix.tileMap(ti, func() *Source { return ix.pinSrc })
}

// WritePrefix is CopyPrefix through the source NewIndex scanned.
func (ix *Index) WritePrefix(w io.Writer, maxLayers int) (int64, error) {
	return ix.CopyPrefix(w, maxLayers, ix.pinSrc)
}
