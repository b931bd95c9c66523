// Package t2 implements JPEG2000 tier-2 coding: code-block partitioning,
// packet headers (inclusion and zero-bit-plane tag trees, pass-count VLC,
// Lblock length signalling, bit stuffing) and the codestream marker syntax
// (SOC/SIZ/COD/QCD/SOT/SOD/EOC). One precinct per resolution and LRCP
// progression, the defaults the paper's experiments used.
package t2

import (
	"fmt"
	"slices"

	"pj2k/internal/bitio"
	"pj2k/internal/dwt"
	"pj2k/internal/t1"
	"pj2k/internal/tagtree"
)

// CBRect is one code-block's rectangle within its subband (band-relative
// coordinates).
type CBRect struct {
	X0, Y0, X1, Y1 int
}

// Grid describes the code-block partition of one subband.
type Grid struct {
	Band   dwt.Subband
	GW, GH int // grid dimensions in blocks
	Rects  []CBRect
}

// Reshape partitions band into code-blocks of at most cbw x cbh samples,
// rebuilding the block rectangles into g's existing Rects storage when it is
// large enough. The zero Grid is ready for it.
func (g *Grid) Reshape(band dwt.Subband, cbw, cbh int) {
	w, h := band.Width(), band.Height()
	g.Band, g.GW, g.GH = band, 0, 0
	g.Rects = g.Rects[:0]
	if w == 0 || h == 0 {
		return
	}
	g.GW, g.GH = (w+cbw-1)/cbw, (h+cbh-1)/cbh
	g.Rects = slices.Grow(g.Rects, g.GW*g.GH)
	for gy := 0; gy < g.GH; gy++ {
		for gx := 0; gx < g.GW; gx++ {
			g.Rects = append(g.Rects, CBRect{
				X0: gx * cbw, Y0: gy * cbh, X1: min((gx+1)*cbw, w), Y1: min((gy+1)*cbh, h),
			})
		}
	}
}

// BlockStream carries the tier-1 output tier-2 needs for one code-block.
type BlockStream struct {
	Data         []byte
	NumBitplanes int
	PassRates    []int // cumulative bytes through each pass
}

// BandBlocks couples a grid with its blocks' streams (encoder side) and the
// band's nominal maximum bit-plane count Mb (for zero-bit-plane signalling).
type BandBlocks struct {
	Grid   Grid
	Mb     int
	Blocks []*BlockStream // len GW*GH, raster order
}

// bandState is the per-band packet-header coding state shared across layers.
type bandState struct {
	incl      tagtree.Tree
	zbp       tagtree.Tree
	included  []bool
	lblock    []int
	passesCum []int
}

// reshape restores the state to the start of a tile over grid g, reusing the
// tag trees and arrays of whatever shape it held before.
func (st *bandState) reshape(g Grid) {
	n := g.GW * g.GH
	if n > 0 {
		st.incl.Reshape(g.GW, g.GH)
		st.zbp.Reshape(g.GW, g.GH)
	}
	st.included = grow(st.included, n)
	st.lblock = grow(st.lblock, n)
	st.passesCum = grow(st.passesCum, n)
	clear(st.included)
	for i := range st.lblock {
		st.lblock[i] = 3
	}
	clear(st.passesCum)
}

// grow returns s with length n, keeping its elements and capacity: pooled
// state grows to the largest shape it has seen and never shrinks. It is the
// same rule as jp2k's grow; keep the two in step.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

func floorLog2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

func bitLen(v int) int {
	n := 0
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}

// writePassCount emits the standard variable-length code for the number of
// new coding passes (1..164).
func writePassCount(w *bitio.StuffWriter, n int) {
	switch {
	case n == 1:
		w.WriteBit(0)
	case n == 2:
		w.WriteBits(0b10, 2)
	case n <= 5:
		w.WriteBits(0b11, 2)
		w.WriteBits(uint32(n-3), 2)
	case n <= 36:
		w.WriteBits(0b1111, 4)
		w.WriteBits(uint32(n-6), 5)
	case n <= 164:
		w.WriteBits(0b111111111, 9)
		w.WriteBits(uint32(n-37), 7)
	default:
		panic(fmt.Sprintf("t2: pass count %d exceeds 164", n))
	}
}

// readPassCount mirrors writePassCount.
func readPassCount(r *bitio.StuffReader) (int, error) {
	b, err := r.ReadBit()
	if err != nil {
		return 0, err
	}
	if b == 0 {
		return 1, nil
	}
	if b, err = r.ReadBit(); err != nil {
		return 0, err
	}
	if b == 0 {
		return 2, nil
	}
	v, err := r.ReadBits(2)
	if err != nil {
		return 0, err
	}
	if v < 3 {
		return 3 + int(v), nil
	}
	if v, err = r.ReadBits(5); err != nil {
		return 0, err
	}
	if v < 31 {
		return 6 + int(v), nil
	}
	if v, err = r.ReadBits(7); err != nil {
		return 0, err
	}
	return 37 + int(v), nil
}

// compCoder is the per-component slice of a TileCoder: one bandState per
// subband (dwt.Subbands order) plus the component-local block id layout.
type compCoder struct {
	states    []bandState
	blockBase []int // component-local block id of each band's first block
	nblocks   int
}

// reshape fits the coder to bands, reusing every band state it holds.
func (cc *compCoder) reshape(bands []BandBlocks) {
	cc.states = grow(cc.states, len(bands))
	cc.blockBase = grow(cc.blockBase, len(bands))
	id := 0
	for i, b := range bands {
		cc.states[i].reshape(b.Grid)
		cc.blockBase[i] = id
		id += b.Grid.GW * b.Grid.GH
	}
	cc.nblocks = id
}

// TileCoder holds per-tile packet coding state: per component, one bandState
// per subband, plus reusable header/body buffers shared across components.
// Pooled encoders keep one TileCoder per tile and every packet-assembly round
// reshapes it in place, so the tag trees and state arrays are allocated once
// per encoder lifetime, not once per shape. A TileCoder is not safe for concurrent use.
type TileCoder struct {
	comps []compCoder
	hw    *bitio.StuffWriter // reusable packet-header writer
	hr    bitio.StuffReader  // reusable packet-header reader
	body  []byte             // reusable packet-body buffer
	pend  []pendingSeg       // reusable decode-side body segment list
	segs  []int              // reusable per-block segment pass-end scratch

	// SOP and EPH select the error-resilience markers of Annex A: a 6-byte
	// SOP (start-of-packet, with a wrapping sequence number) before every
	// packet, and a 2-byte EPH (end-of-packet-header) after every packet
	// header. Both sides of a codestream must agree — set them from the COD
	// Scod bits (Params.UseSOP/UseEPH) before encoding or decoding;
	// resetComps does not touch them.
	SOP bool
	EPH bool

	// Modes carries the tier-1 coder modes the COD code-block style byte
	// signals. Terminating modes (bypass, TERMALL) split a block's coded data
	// into multiple codeword segments, and packet headers then signal one
	// length per segment instead of one per block contribution — both sides of
	// a codestream must agree. Set it from Params.CoderModes before encoding
	// or decoding; resetComps does not touch it.
	Modes t1.Modes
}

// NewTileCoderComps builds coding state for one tile's per-component band
// geometry (comps[ci] lists component ci's bands in dwt.Subbands order).
func NewTileCoderComps(comps [][]BandBlocks) *TileCoder {
	tc := &TileCoder{hw: bitio.NewStuffWriter()}
	tc.resetComps(comps)
	return tc
}

// resetComps prepares the coder for a fresh tile over comps, whatever
// geometry it coded before: every band state reshapes in place, so a coder
// that has seen its largest shape allocates nothing.
func (tc *TileCoder) resetComps(comps [][]BandBlocks) {
	tc.comps = grow(tc.comps, len(comps))
	for ci := range comps {
		tc.comps[ci].reshape(comps[ci])
	}
}

// seedInclusion sets component ci's inclusion tag-tree leaf values from the
// full layer allocation: the first layer each block contributes passes in, or
// nlayers for blocks never included. Must be called before encoding any
// packet — tag-tree minima are global, so values cannot be revealed lazily.
func (tc *TileCoder) seedInclusion(ci int, bands []BandBlocks, layers [][]int) {
	cc := &tc.comps[ci]
	nlayers := len(layers)
	for bi, b := range bands {
		st := &cc.states[bi]
		for k := range b.Blocks {
			id := cc.blockBase[bi] + k
			first := nlayers
			for li := 0; li < nlayers; li++ {
				if layers[li][id] > 0 {
					first = li
					break
				}
			}
			gx, gy := k%b.Grid.GW, k/b.Grid.GW
			st.incl.SetValue(gx, gy, first)
			st.zbp.SetValue(gx, gy, b.Mb-b.Blocks[k].NumBitplanes)
		}
	}
}

// encodePacket appends packet id to dst. bands are the packet's component's
// bands; target holds that component's cumulative pass counts per
// component-local block id through id.layer. The header writer and body
// buffer are reused across packets.
func (tc *TileCoder) encodePacket(id packetID, dst []byte, bands []BandBlocks, target []int) []byte {
	cc := &tc.comps[id.comp]
	lo, hi := dwt.ResolutionBands(id.res)
	nonEmpty := false
	if target != nil {
		for bi := lo; bi < hi; bi++ {
			st := &cc.states[bi]
			for k := range st.passesCum {
				if target[cc.blockBase[bi]+k] > st.passesCum[k] {
					nonEmpty = true
				}
			}
		}
	}
	w := tc.hw
	w.Reset()
	if !nonEmpty {
		w.WriteBit(0)
		dst = append(dst, w.Bytes()...)
		if tc.EPH {
			dst = append(dst, 0xFF, byte(mEPH&0xFF))
		}
		return dst
	}
	w.WriteBit(1)
	body := tc.body[:0]
	for bi := lo; bi < hi; bi++ {
		b := bands[bi]
		st := &cc.states[bi]
		for k := range st.passesCum {
			blk := b.Blocks[k]
			bid := cc.blockBase[bi] + k
			gx, gy := k%b.Grid.GW, k/b.Grid.GW
			cum := st.passesCum[k]
			newPasses := target[bid] - cum
			if !st.included[k] {
				// Tag-tree inclusion: decoder learns whether the block's
				// first layer is <= this layer.
				st.incl.Encode(w, gx, gy, id.layer+1)
				if newPasses <= 0 {
					continue
				}
				st.zbp.EncodeValue(w, gx, gy)
				st.included[k] = true
			} else {
				if newPasses <= 0 {
					w.WriteBit(0)
					continue
				}
				w.WriteBit(1)
			}
			writePassCount(w, newPasses)
			start := 0
			if cum > 0 {
				start = blk.PassRates[cum-1]
			}
			// One signalled length per codeword segment (a single segment
			// unless the coder modes terminate passes). The Lblock raise is
			// shared — a single 1-bit run covering the worst segment — then
			// each segment's length is written with Lblock + floor(log2(its
			// pass count)) bits.
			segs := tc.Modes.AppendSegEnds(tc.segs[:0], cum, cum+newPasses)
			tc.segs = segs
			need := 0
			prev, segStart := cum, start
			for _, e := range segs {
				if d := bitLen(blk.PassRates[e-1]-segStart) - floorLog2(e-prev); d > need {
					need = d
				}
				prev, segStart = e, blk.PassRates[e-1]
			}
			for st.lblock[k] < need {
				w.WriteBit(1)
				st.lblock[k]++
			}
			w.WriteBit(0)
			prev, segStart = cum, start
			for _, e := range segs {
				w.WriteBits(uint32(blk.PassRates[e-1]-segStart), st.lblock[k]+floorLog2(e-prev))
				prev, segStart = e, blk.PassRates[e-1]
			}
			body = append(body, blk.Data[start:blk.PassRates[cum+newPasses-1]]...)
			st.passesCum[k] = target[bid]
		}
	}
	tc.body = body // keep the grown capacity for the next packet
	dst = append(dst, w.Bytes()...)
	if tc.EPH {
		dst = append(dst, 0xFF, byte(mEPH&0xFF))
	}
	return append(dst, body...)
}

// DecodedBlock accumulates a block's data across packets on the decode side.
// Under terminating coder modes SegEnds collects the cumulative byte offset
// in Data of each *closed* codeword segment — one entry per segment whose
// last pass terminated; use SegmentEnds to obtain the full layout including
// the trailing still-open segment.
type DecodedBlock struct {
	Data         []byte
	Passes       int
	NumBitplanes int
	SegEnds      []int
}

// SegmentEnds returns the block's codeword-segment layout in the form the
// tier-1 decoder's BlockIn.SegEnds expects: one cumulative byte offset per
// segment covering the block's committed passes, the last always closing at
// len(Data). Nil for non-terminating modes (a single implicit segment).
func (b *DecodedBlock) SegmentEnds(m t1.Modes) []int {
	if !m.Terminated() || b.Passes == 0 {
		return nil
	}
	if len(b.SegEnds) == m.NumSegments(b.Passes) {
		return b.SegEnds
	}
	// The final committed pass did not terminate its segment (a mid-segment
	// rate truncation): the open segment runs to the end of the data.
	return append(b.SegEnds, len(b.Data))
}

// packetID names one packet of a tile: its quality layer, resolution and
// component (one precinct per resolution, so no fourth key).
type packetID struct {
	layer, res, comp int
}

// lrcp returns the packet at stream position pos of a tile with levels
// decomposition levels and ncomp components, in the standard's
// layer-resolution-component-position progression: layer outer, resolution
// middle, component inner. It is the only place the progression order is
// written — the encoder, the decode walk and the Index all read it — and pos
// is also the packet's SOP sequence number (mod 2^16). Another progression
// order is another function of this shape.
func lrcp(pos, levels, ncomp int) packetID {
	perLayer := (levels + 1) * ncomp
	return packetID{layer: pos / perLayer, res: pos % perLayer / ncomp, comp: pos % ncomp}
}

// EncodeTileCompsPackets assembles all packets of one tile in lrcp order, one
// packet per stream position. The coder is reset first and the packets are
// appended to dst (which may be a recycled buffer sliced to length 0). layers[ci][li] holds component ci's cumulative
// pass counts per component-local block id through layer li; ids enumerate
// bands in dwt.Subbands order, blocks raster-scan within a band. When
// compBytes is non-nil it accumulates the packet bytes emitted per component
// (for per-component rate accounting).
func (tc *TileCoder) EncodeTileCompsPackets(comps [][]BandBlocks, levels int,
	layers [][][]int, dst []byte, compBytes []int) []byte {

	tc.resetComps(comps)
	nlayers := 0
	for ci := range comps {
		tc.seedInclusion(ci, comps[ci], layers[ci])
		if len(layers[ci]) > nlayers {
			nlayers = len(layers[ci])
		}
	}
	for pos := range nlayers * (levels + 1) * len(comps) {
		id := lrcp(pos, levels, len(comps))
		// A component with fewer layers than the progression still
		// contributes one (empty) packet per remaining layer: its last
		// cumulative targets carry no new passes (nil for a component with
		// no layers at all).
		var target []int
		if n := len(layers[id.comp]); n > 0 {
			target = layers[id.comp][min(id.layer, n-1)]
		}
		before := len(dst)
		if tc.SOP { // Nsop carries the position's low 16 bits
			dst = append(dst, 0xFF, byte(mSOP&0xFF), 0, 4, byte(pos>>8), byte(pos))
		}
		dst = tc.encodePacket(id, dst, comps[id.comp], target)
		if compBytes != nil {
			compBytes[id.comp] += len(dst) - before
		}
	}
	return dst
}

// resetDec regrows dec to n blocks with each block's Data capacity retained.
func resetDec(dec []DecodedBlock, n int) []DecodedBlock {
	if cap(dec) < n {
		grown := make([]DecodedBlock, n)
		for i := range dec {
			grown[i].Data = dec[i].Data // keep warmed byte buffers
			grown[i].SegEnds = dec[i].SegEnds
		}
		dec = grown
	} else {
		dec = dec[:n]
	}
	for i := range dec {
		dec[i].Passes = 0
		dec[i].NumBitplanes = 0
		dec[i].Data = dec[i].Data[:0]
		dec[i].SegEnds = dec[i].SegEnds[:0]
	}
	return dec
}

// pendingSeg records one block's body segment within a packet, discovered
// during the header walk and consumed after Terminate. Pass counts ride along
// so passesCum/Passes commit only as each body segment is verified present —
// a packet that fails mid-parse leaves the pass accounting consistent with
// the data actually accumulated, which resilient resync depends on.
type pendingSeg struct {
	id     int
	segLen int
	np     int
	st     *bandState
	k      int
	closed bool // the segment's last pass terminated it (terminating modes)
}

// decodePacket parses packet id, appending segment bytes and pass counts to
// dec (its component's blocks, indexed by component-local block id).
// NumBitplanes of first-included blocks is stored into dec. With
// copyBody false the body bytes are skipped rather than accumulated — the
// header-only walk the codestream Index uses to locate packet boundaries
// without touching block payloads. Returns the bytes consumed.
func (tc *TileCoder) decodePacket(id packetID, bands []BandBlocks, data []byte,
	dec []DecodedBlock, copyBody bool) (int, error) {

	skip := 0
	if tc.SOP {
		if len(data) < 6 || data[0] != 0xFF || data[1] != byte(mSOP&0xFF) ||
			data[2] != 0 || data[3] != 4 {
			return 0, fmt.Errorf("t2: missing SOP before packet")
		}
		// The Nsop sequence value is informative (resync uses it); the
		// in-order walk does not require any particular value.
		skip = 6
		data = data[skip:]
	}
	cc := &tc.comps[id.comp]
	r := &tc.hr
	r.Reset(data)
	bit, err := r.ReadBit()
	if err != nil {
		return 0, fmt.Errorf("t2: packet empty-bit: %w", err)
	}
	if bit == 0 {
		pos, err := r.Terminate()
		if err != nil {
			return 0, err
		}
		if pos, err = tc.expectEPH(data, pos); err != nil {
			return 0, err
		}
		return skip + pos, nil
	}
	body := tc.pend[:0]
	lo, hi := dwt.ResolutionBands(id.res)
	for bi := lo; bi < hi; bi++ {
		b := bands[bi]
		st := &cc.states[bi]
		for k := range st.passesCum {
			bid := cc.blockBase[bi] + k
			gx, gy := k%b.Grid.GW, k/b.Grid.GW
			if !st.included[k] {
				inc, err := st.incl.Decode(r, gx, gy, id.layer+1)
				if err != nil {
					return 0, err
				}
				if !inc {
					continue
				}
				zbp, err := st.zbp.DecodeValue(r, gx, gy)
				if err != nil {
					return 0, err
				}
				dec[bid].NumBitplanes = b.Mb - zbp
				st.included[k] = true
			} else {
				bit, err := r.ReadBit()
				if err != nil {
					return 0, err
				}
				if bit == 0 {
					continue
				}
			}
			np, err := readPassCount(r)
			if err != nil {
				return 0, err
			}
			lb := &st.lblock[k]
			for {
				bit, err := r.ReadBit()
				if err != nil {
					return 0, err
				}
				if bit == 0 {
					break
				}
				*lb++
			}
			// One signalled length per codeword segment; commit each as its
			// own body segment so pass accounting and segment layout stay
			// consistent under mid-packet damage.
			m := tc.Modes
			segs := m.AppendSegEnds(tc.segs[:0], st.passesCum[k], st.passesCum[k]+np)
			tc.segs = segs
			prev := st.passesCum[k]
			for _, e := range segs {
				segLen, err := r.ReadBits(*lb + floorLog2(e-prev))
				if err != nil {
					return 0, err
				}
				body = append(body, pendingSeg{id: bid, segLen: int(segLen), np: e - prev,
					st: st, k: k, closed: m.TermPass(e - 1)})
				prev = e
			}
		}
	}
	tc.pend = body // keep the grown capacity for the next packet
	pos, err := r.Terminate()
	if err != nil {
		return 0, err
	}
	if pos, err = tc.expectEPH(data, pos); err != nil {
		return 0, err
	}
	for _, p := range body {
		if p.segLen < 0 || pos+p.segLen > len(data) {
			return 0, fmt.Errorf("t2: packet body truncated: need %d bytes at %d of %d", p.segLen, pos, len(data))
		}
		if copyBody {
			dec[p.id].Data = append(dec[p.id].Data, data[pos:pos+p.segLen]...)
			if p.closed {
				dec[p.id].SegEnds = append(dec[p.id].SegEnds, len(dec[p.id].Data))
			}
		}
		p.st.passesCum[p.k] += p.np
		dec[p.id].Passes += p.np
		pos += p.segLen
	}
	return skip + pos, nil
}

// DecodeDamage summarizes what a resilient packet walk lost.
type DecodeDamage struct {
	BadPackets      int // packets whose parse failed
	PacketsResynced int // successful resyncs to a later SOP marker
	PacketsLost     int // packets skipped: bad ones plus any swallowed by resync or abort
}

// Any reports whether the walk recorded any packet-level damage.
func (d DecodeDamage) Any() bool { return d.BadPackets > 0 || d.PacketsLost > 0 }

// DecodePackets parses nlayers * (levels+1) * len(comps) packets in the
// lrcp order EncodeTileCompsPackets emits. comps carries the grid geometry
// and Mb per band (Blocks entries are ignored). The coder is reset over that
// geometry and dec[ci] (which may be recycled from a previous tile, or nil)
// is regrown to component ci's block count with each block's Data capacity
// retained, so steady-state decoding of same-shaped tiles performs no
// per-packet allocations. Returns the (possibly regrown) per-component dec
// slices, indexed by component-local block id; dec must have len(comps)
// entries.
//
// Strictly, the first malformed packet fails the tile. With resilient set a
// malformed packet never fails it: when the stream carries SOP markers the
// walk scans forward for the next SOP whose sequence number names a later
// stream position and resumes there; without them it keeps everything
// committed so far and abandons the rest of the tile, counting the loss in
// DecodeDamage. Pass counts commit per verified body segment (see
// pendingSeg), so the returned blocks are always self-consistent — at worst
// shallow.
func (tc *TileCoder) DecodePackets(comps [][]BandBlocks, levels, nlayers int,
	data []byte, dec [][]DecodedBlock, resilient bool) ([][]DecodedBlock, DecodeDamage, error) {

	dec, _, dmg, err := tc.walkPackets(comps, levels, nlayers, data, dec, resilient, nil)
	return dec, dmg, err
}

// walkPackets is the one decode-side packet loop — behind DecodePackets and
// the Index: a loop over stream positions, each naming its packet through
// lrcp. The only policy is what the first bad packet does — fail the
// tile (strict), or resync/abandon and count (resilient, which never errors).
// With spans non-nil the walk is header-only (block bodies are skipped, not
// copied into dec) and records the byte range of the packet at position pos
// in spans[pos], which must have room for every packet.
func (tc *TileCoder) walkPackets(comps [][]BandBlocks, levels, nlayers int,
	data []byte, dec [][]DecodedBlock, resilient bool, spans []Span) ([][]DecodedBlock, int, DecodeDamage, error) {

	tc.resetComps(comps)
	for ci := range comps {
		dec[ci] = resetDec(dec[ci], tc.comps[ci].nblocks)
	}
	var dmg DecodeDamage
	npk := nlayers * (levels + 1) * len(comps)
	off := 0
	for pos := 0; pos < npk; {
		id := lrcp(pos, levels, len(comps))
		n, err := tc.decodePacket(id, comps[id.comp], data[off:], dec[id.comp], spans == nil)
		if err == nil {
			if spans != nil {
				spans[pos] = Span{Off: off, Len: n}
			}
			off += n
			pos++
			continue
		}
		if !resilient {
			return nil, 0, dmg, fmt.Errorf("t2: layer %d resolution %d component %d: %w", id.layer, id.res, id.comp, err)
		}
		dmg.BadPackets++
		if tc.SOP {
			if next, at := findSOP(data, off+1, pos, npk); next >= 0 {
				dmg.PacketsResynced++
				dmg.PacketsLost += next - pos
				pos = next
				off = at
				continue
			}
		}
		// No resync anchor ahead: keep every pass committed so far and give
		// up on the rest of the tile.
		dmg.PacketsLost += npk - pos
		break
	}
	return dec, off, dmg, nil
}

// findSOP scans data at or after off for an SOP marker whose sequence number
// maps to a stream position after cur and before npk, returning that position
// and the marker's offset (-1, 0 when none is found). MQ bit-stuffing keeps 0x91
// from following 0xFF inside codeword segments and stuffed headers, so a hit
// is a real marker rather than body bytes — the property that makes SOP a
// usable resync anchor.
func findSOP(data []byte, off, cur, npk int) (int, int) {
	for i := off; i+6 <= len(data); i++ {
		if data[i] != 0xFF || data[i+1] != byte(mSOP&0xFF) || data[i+2] != 0 || data[i+3] != 4 {
			continue
		}
		seq := int(data[i+4])<<8 | int(data[i+5])
		delta := (seq - (cur + 1)) & 0xFFFF // Nsop wraps at 2^16
		if next := cur + 1 + delta; next < npk {
			return next, i
		}
	}
	return -1, 0
}

// expectEPH consumes the end-of-packet-header marker after the stuffed
// header bytes when EPH signalling is on. A missing EPH is the cheapest
// possible header-integrity check: a header whose bit walk desynchronized
// almost never terminates exactly on a stray FF92.
func (tc *TileCoder) expectEPH(data []byte, pos int) (int, error) {
	if !tc.EPH {
		return pos, nil
	}
	if pos+2 > len(data) || data[pos] != 0xFF || data[pos+1] != byte(mEPH&0xFF) {
		return 0, fmt.Errorf("t2: missing EPH after packet header")
	}
	return pos + 2, nil
}
