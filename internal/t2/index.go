package t2

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"pj2k/internal/dwt"
)

// Span is a byte range relative to its tile-part body.
type Span struct {
	Off, Len int
}

// End returns the offset one past the span.
func (s Span) End() int { return s.Off + s.Len }

// TileIndex locates every packet of one tile: Packets[component][layer]
// [resolution] is the packet's byte range within the tile-part body (the
// tile's entry in Index.Spans). It holds no body bytes. Packets are
// contiguous in LRCP order (layer outer, resolution middle, component inner),
// so the body prefix through any layer is a single range starting at offset 0.
type TileIndex struct {
	Packets [][][]Span
}

// layerPrefixLen returns the length of the body prefix carrying the first
// `layers` quality layers — the embedded-stream property LRCP ordering
// guarantees: fewer layers are always a contiguous prefix.
func (t *TileIndex) layerPrefixLen(layers int) int {
	if layers <= 0 {
		return 0
	}
	// The last packet of a layer belongs to the last component's highest
	// resolution (component is the innermost LRCP loop).
	last := t.Packets[len(t.Packets)-1][layers-1]
	return last[len(last)-1].End()
}

// lazyTile is one tile's once-built packet map. A successful build and a
// permanent parse failure are memoized; an IO failure is not, so a tile whose
// source was unreadable (and later healed — quarantine recovery) rebuilds on
// the next touch instead of being poisoned for the life of the Index.
type lazyTile struct {
	mu    sync.Mutex
	built bool
	ti    TileIndex
	err   error
}

// Index is a map of a codestream: the header parameters plus the byte range
// of every packet (per tile x component x layer x resolution), located by
// walking packet headers without entropy-decoding any code-block. It keeps
// the packet maps, never the bytes: a tile's body is read to build its map
// and dropped, and WritePrefix reads what it writes from the source.
//
// Construction (NewIndex) is incremental: the main header and the SOT/Psot
// tile-part chain are parsed eagerly — seeking tile to tile without reading
// any body bytes — and each tile's packet-boundary map is built lazily on
// first touch (Tile), guarded for concurrent use. It is the substrate of the
// serving subsystem: a region/resolution/layer request can be costed
// (RegionBytes, PrefixSize) or sliced (WritePrefix) per request while the
// Index itself is built once and shared between any number of goroutines.
type Index struct {
	Params Params
	src    *Source
	spans  []TileSpan
	tiles  []lazyTile
}

// NewIndex scans a codestream's main header and tile-part chain and returns
// the lazy index over it. Geometry and tile-grid consistency are validated
// here; per-tile packet walks happen on first Tile touch. The Index retains
// src (and reads from it lazily); the caller keeps ownership and must keep it
// open for the Index's lifetime.
func NewIndex(src *Source) (*Index, error) {
	p, spans, err := ScanCodestream(src)
	if err != nil {
		return nil, err
	}
	if err := p.CheckGeometry(); err != nil {
		return nil, err
	}
	ntx, nty := p.NumTiles()
	if len(spans) != ntx*nty {
		return nil, fmt.Errorf("t2: %d tile-parts for a %dx%d tile grid", len(spans), ntx, nty)
	}
	return &Index{Params: p, src: src, spans: spans, tiles: make([]lazyTile, len(spans))}, nil
}

// BuildIndex parses a resident codestream and locates every packet boundary
// eagerly — NewIndex over a BytesSource with every tile forced, so a corrupt
// stream is fully rejected here rather than on first touch. The walk decodes
// only packet headers (tag trees, pass counts, length signalling); block
// payloads are skipped, so indexing is cheap compared to decoding. Corrupt or
// truncated streams yield an error, never a panic.
func BuildIndex(data []byte) (*Index, error) {
	ix, err := NewIndex(BytesSource(data))
	if err != nil {
		return nil, err
	}
	for ti := range ix.tiles {
		if _, err := ix.Tile(ti); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// Source returns the Source the index reads from.
func (ix *Index) Source() *Source { return ix.src }

// NumTiles returns the number of tiles in the indexed stream.
func (ix *Index) NumTiles() int { return len(ix.spans) }

// Spans returns the tile-part body span of every tile, indexed by tile: the
// scan NewIndex made, for a decode to reuse instead of re-walking the chain.
// The slice is the index's own and shared by every caller; it must not be
// modified (its capacity is clipped, so an append copies).
func (ix *Index) Spans() []TileSpan { return ix.spans[:len(ix.spans):len(ix.spans)] }

// Tile returns tile ti's packet map, building it on first touch. Concurrent
// calls for the same tile coalesce on a per-tile lock; calls for different
// tiles build independently (each walk uses its own coder state), so disjoint
// tiles of one Index can be forced from many goroutines at once. Successful
// builds and permanent parse errors are memoized for the life of the Index;
// IO failures are returned but not memoized, so the tile is retried once its
// source reads again.
func (ix *Index) Tile(ti int) (*TileIndex, error) {
	if ti < 0 || ti >= len(ix.tiles) {
		return nil, fmt.Errorf("t2: tile %d of %d", ti, len(ix.tiles))
	}
	lt := &ix.tiles[ti]
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.built {
		if lt.err != nil {
			return nil, lt.err
		}
		return &lt.ti, nil
	}
	t, err := ix.buildTile(ti)
	if err != nil {
		if IsIOError(err) {
			return nil, err
		}
		lt.built, lt.err = true, err
		return nil, err
	}
	lt.built, lt.ti = true, t
	return &lt.ti, nil
}

// buildTile reads one tile-part body into a temporary buffer and walks its
// packet headers into a TileIndex; the body is dropped when the walk is done.
// All state is local, so concurrent builds of different tiles never share
// coder scratch.
func (ix *Index) buildTile(ti int) (TileIndex, error) {
	p := ix.Params
	sp := ix.spans[ti]
	nc := p.Components()
	nbands := 1 + 3*p.Levels
	ntx, _ := p.NumTiles()
	tx, ty := ti%ntx, ti/ntx
	x0, y0 := tx*p.TileW, ty*p.TileH
	tw := min(x0+p.TileW, p.Width) - x0
	th := min(y0+p.TileH, p.Height) - y0
	comps := make([][]BandBlocks, nc)
	for ci := range comps {
		comps[ci] = make([]BandBlocks, nbands)
	}
	for bi, b := range dwt.Subbands(tw, th, p.Levels) {
		g := MakeGrid(b, p.CBW, p.CBH)
		for ci := 0; ci < nc; ci++ {
			comps[ci][bi] = BandBlocks{Grid: g, Mb: p.Mb[ci][bi]}
		}
	}
	tc := NewTileCoderComps(comps)
	tc.SOP, tc.EPH = p.UseSOP, p.UseEPH
	tc.Modes = p.CoderModes()
	dec := make([][]DecodedBlock, nc)
	for ci := 0; ci < nc; ci++ {
		dec[ci] = resetDec(dec[ci], tc.comps[ci].nblocks)
	}
	// Every packet costs at least one body byte (the empty-bit header), so
	// the declared layer/level/component counts bound the body size. Checking
	// before allocating keeps a tiny corrupt stream from demanding gigabytes
	// of span bookkeeping.
	if npackets := nc * p.Layers * (p.Levels + 1); int64(npackets) > sp.Len {
		return TileIndex{}, fmt.Errorf("t2: tile %d declares %d packets but carries %d bytes",
			ti, npackets, sp.Len)
	}
	body := make([]byte, sp.Len)
	if _, err := ix.src.ReadAt(body, sp.Off); err != nil {
		return TileIndex{}, fmt.Errorf("t2: tile %d body: %w", ti, err)
	}
	packets := make([][][]Span, nc)
	for ci := range packets {
		packets[ci] = make([][]Span, p.Layers)
		for li := range packets[ci] {
			packets[ci][li] = make([]Span, p.Levels+1)
		}
	}
	pos := 0
	for li := 0; li < p.Layers; li++ {
		for r := 0; r <= p.Levels; r++ {
			bandIdx := dwt.BandsOfResolution(p.Levels, r)
			for ci := 0; ci < nc; ci++ {
				n, err := tc.decodePacket(ci, comps[ci], bandIdx, li, body[pos:], dec[ci], false)
				if err != nil {
					return TileIndex{}, fmt.Errorf("t2: tile %d layer %d resolution %d component %d: %w",
						ti, li, r, ci, err)
				}
				packets[ci][li][r] = Span{Off: pos, Len: n}
				pos += n
			}
		}
	}
	return TileIndex{Packets: packets}, nil
}

// RegionBytes sums the packet bytes a decode of the given tiles at the given
// discard-levels/layer limit must touch, across every component — the payload
// cost of a window request, before any caching. discard and layers are
// clamped to the stream. Only the listed tiles are forced; a tile whose
// packet walk fails contributes zero (the serving path surfaces the error
// when the tile is actually decoded).
func (ix *Index) RegionBytes(tiles []int, discard, layers int) int {
	p := ix.Params
	if discard < 0 {
		discard = 0
	}
	if discard > p.Levels {
		discard = p.Levels
	}
	if layers <= 0 || layers > p.Layers {
		layers = p.Layers
	}
	maxRes := p.Levels - discard
	total := 0
	for _, ti := range tiles {
		t, err := ix.Tile(ti)
		if err != nil {
			continue
		}
		for _, comp := range t.Packets {
			for li := 0; li < layers; li++ {
				for r := 0; r <= maxRes; r++ {
					total += comp[li][r].Len
				}
			}
		}
	}
	return total
}

// sotLen is the length of the tile-part header appendSOT writes: the SOT
// marker segment plus the SOD marker.
const sotLen = 14

// PrefixSize returns the length of the stream WritePrefix(w, maxLayers)
// writes, computed from the packet maps alone: the main header, one tile-part
// header and layer prefix per tile, and EOC. It forces every tile's packet
// map, so a tile that cannot be indexed fails here, before anything is sent.
func (ix *Index) PrefixSize(maxLayers int) (int64, error) {
	hp := ix.Params
	hp.Layers = min(max(maxLayers, 1), hp.Layers)
	n := int64(len(appendMainHeader(nil, hp))) + 2 // + EOC
	for ti := range ix.spans {
		t, err := ix.Tile(ti)
		if err != nil {
			return 0, err
		}
		n += sotLen + int64(t.layerPrefixLen(hp.Layers))
	}
	return n, nil
}

// WritePrefix streams a valid standalone codestream carrying only the first
// maxLayers quality layers of every tile to w: the progressive-refinement
// primitive a server sends to a client that asked for a coarse image now and
// will fetch more layers later. Each tile's layer prefix is read from the
// source into one reused buffer and written with its tile-part header, so
// the re-emitted stream is never held whole. maxLayers is clamped to
// [1, Params.Layers]; with maxLayers >= Params.Layers the result is
// equivalent to the original stream (modulo any bytes outside the indexed
// packets). Returns the bytes written; PrefixSize returns the same count
// without writing.
func (ix *Index) WritePrefix(w io.Writer, maxLayers int) (int64, error) {
	hp := ix.Params
	hp.Layers = min(max(maxLayers, 1), hp.Layers)
	buf := appendMainHeader(nil, hp)
	n, err := w.Write(buf)
	written := int64(n)
	if err != nil {
		return written, err
	}
	for ti, sp := range ix.spans {
		t, err := ix.Tile(ti)
		if err != nil {
			return written, err
		}
		pl := t.layerPrefixLen(hp.Layers)
		buf = slices.Grow(appendSOT(buf[:0], ti, pl), pl)[:sotLen+pl]
		if _, err := ix.src.ReadAt(buf[sotLen:], sp.Off); err != nil {
			return written, fmt.Errorf("t2: tile %d body: %w", ti, err)
		}
		n, err = w.Write(buf)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	n, err = w.Write(put16(buf[:0], mEOC))
	return written + int64(n), err
}
