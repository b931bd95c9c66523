package t2

// TileMap is tileMap over a fixed source, for the external tests.
func (ix *Index) TileMap(ti int, src *Source) (*TileIndex, error) {
	return ix.tileMap(ti, func() *Source { return src })
}
