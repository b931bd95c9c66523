package t2

import (
	"io"

	"pj2k/internal/dwt"
)

// Kept for bench/ only; deleted in the benchmark PR (ROADMAP item 7).

// ScanCodestream parses the main header and walks the SOT/Psot tile-part
// chain of a codestream, seeking tile to tile without reading any body bytes:
// the parse cost (and IO) of registering a stream is its headers, not its
// size. The returned spans locate each tile-part body in the source, in
// chain order.
func ScanCodestream(src *Source) (Params, []TileSpan, error) {
	p, spans, _, err := new(Scanner).Scan(src, false)
	return p, spans, err
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
