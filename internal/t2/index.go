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

// TileIndex locates every packet of one tile: Packets[pos] is the byte range,
// within the tile-part body (the tile's entry in Index.Spans), of the packet
// at stream position pos — lrcp names which packet that is. It holds no body
// bytes. The packets are contiguous in stream order, so the body prefix
// through any layer is a single range starting at offset 0.
type TileIndex struct {
	Packets []Span
}

// layerPrefixLen returns the length of tile t's body prefix carrying the
// first `layers` quality layers — the embedded-stream property LRCP ordering
// guarantees: fewer layers are always a contiguous prefix. lrcp is
// layer-major, so the prefix ends with the packet at position
// layers·(levels+1)·components − 1.
func (ix *Index) layerPrefixLen(t *TileIndex, layers int) int {
	if layers <= 0 {
		return 0
	}
	return t.Packets[layers*(ix.Params.Levels+1)*ix.Params.Components()-1].End()
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
	p, spans, _, err := new(Scanner).Scan(src, false)
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

// TileLayout is one tile's geometry as it follows from Params — the one
// derivation the encoder, the decoder and the Index share: the tile's origin
// in the image and full-resolution size, its subbands (dwt.Subbands order)
// and, per component, the bands' code-block grids and Mb — the shape the
// packet walk and tier-1 read. The components share one grid per band.
type TileLayout struct {
	X0, Y0, W, H int
	Subbands     []dwt.Subband
	Comps        [][]BandBlocks
}

// Reshape rebuilds l for tile ti of the stream p describes, into l's own
// storage: a layout that has held a shape at least as large allocates nothing.
// Each band's Blocks is left as it was — the encoder fills it in place; the
// decoder and the Index never use it.
func (l *TileLayout) Reshape(p *Params, ti int) {
	ntx, _ := p.NumTiles()
	l.X0, l.Y0 = ti%ntx*p.TileW, ti/ntx*p.TileH
	l.W, l.H = min(l.X0+p.TileW, p.Width)-l.X0, min(l.Y0+p.TileH, p.Height)-l.Y0
	l.Subbands = dwt.SubbandsAppend(l.Subbands[:0], l.W, l.H, p.Levels)
	l.Comps = grow(l.Comps, p.Components())
	for ci := range l.Comps {
		l.Comps[ci] = grow(l.Comps[ci], len(l.Subbands))
	}
	for bi, b := range l.Subbands {
		g := &l.Comps[0][bi].Grid
		g.Reshape(b, p.CBW, p.CBH)
		for ci, bands := range l.Comps {
			bands[bi].Grid, bands[bi].Mb = *g, p.Mb[ci][bi]
		}
	}
}

// buildTile reads one tile-part body into a temporary buffer and walks its
// packet headers into a TileIndex; the body is dropped when the walk is done.
// All state is local, so concurrent builds of different tiles never share
// coder scratch.
func (ix *Index) buildTile(ti int) (TileIndex, error) {
	p := &ix.Params
	sp := ix.spans[ti]
	var l TileLayout
	l.Reshape(p, ti)
	tc := NewTileCoderComps(l.Comps)
	tc.SOP, tc.EPH = p.UseSOP, p.UseEPH
	tc.Modes = p.CoderModes()
	// Every packet costs at least one body byte (the empty-bit header), so
	// the declared layer/level/component counts bound the body size. Checking
	// before allocating keeps a tiny corrupt stream from demanding gigabytes
	// of span bookkeeping.
	npackets := p.Layers * (p.Levels + 1) * len(l.Comps)
	if int64(npackets) > sp.Len {
		return TileIndex{}, fmt.Errorf("t2: tile %d declares %d packets but carries %d bytes",
			ti, npackets, sp.Len)
	}
	body := make([]byte, sp.Len)
	if _, err := ix.src.ReadAt(body, sp.Off); err != nil {
		return TileIndex{}, fmt.Errorf("t2: tile %d body: %w", ti, err)
	}
	packets := make([]Span, npackets)
	dec := make([][]DecodedBlock, len(l.Comps))
	if _, _, _, err := tc.walkPackets(l.Comps, p.Levels, p.Layers, body, dec, false, packets); err != nil {
		return TileIndex{}, fmt.Errorf("t2: tile %d: %w", ti, err)
	}
	return TileIndex{Packets: packets}, nil
}

// RegionBytes sums the packet bytes a decode of the tiles in the tile-grid
// rectangle [tx0, tx1) x [ty0, ty1) at the given discard-levels/layer limit
// must touch, across every component — the payload cost of a window request,
// before any caching. discard and layers are clamped to the stream. Only those
// tiles are forced, in row-major order; the first tile whose packet map
// cannot be built fails the call, so a caller never reports a silently short
// count.
func (ix *Index) RegionBytes(tx0, ty0, tx1, ty1, discard, layers int) (int, error) {
	p := &ix.Params
	if discard < 0 {
		discard = 0
	}
	if discard > p.Levels {
		discard = p.Levels
	}
	if layers <= 0 || layers > p.Layers {
		layers = p.Layers
	}
	// The kept positions of the layer prefix are the same in every tile:
	// name them once, not once per tile.
	var buf [64]bool
	keep := buf[:0]
	nc := p.Components()
	for pos := range layers * (p.Levels + 1) * nc {
		keep = append(keep, lrcp(pos, p.Levels, nc).res <= p.Levels-discard)
	}
	total := 0
	ntx, _ := p.NumTiles()
	for ty := ty0; ty < ty1; ty++ {
		for tx := tx0; tx < tx1; tx++ {
			t, err := ix.Tile(ty*ntx + tx)
			if err != nil {
				return 0, err
			}
			for pos, k := range keep {
				if k {
					total += t.Packets[pos].Len
				}
			}
		}
	}
	return total, nil
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
		n += sotLen + int64(ix.layerPrefixLen(t, hp.Layers))
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
		pl := ix.layerPrefixLen(t, hp.Layers)
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
