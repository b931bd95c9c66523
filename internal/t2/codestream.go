package t2

import (
	"fmt"

	"pj2k/internal/dwt"
	"pj2k/internal/quant"
	"pj2k/internal/t1"
)

// Marker codes (ISO/IEC 15444-1 Annex A).
const (
	mSOC = 0xFF4F
	mSIZ = 0xFF51
	mCOD = 0xFF52
	mRGN = 0xFF5E
	mQCD = 0xFF5C
	mQCC = 0xFF5D
	mSOT = 0xFF90
	mSOP = 0xFF91
	mEPH = 0xFF92
	mSOD = 0xFF93
	mEOC = 0xFFD9
)

// maxComponents bounds Csiz so a corrupt header cannot demand absurd
// per-component allocations downstream (the standard allows 16384; nothing in
// this codebase needs more than a handful).
const maxComponents = 256

// maxImagePixels bounds the total sample budget a header may declare —
// Width x Height x Csiz, one sample per component plane — before any plane is
// allocated: the decompression-bomb guard keeping a 16-byte hostile header
// from demanding gigabytes. The SIZ parser and CheckGeometry both enforce it,
// so hand-built Params pass through the same gate as parsed streams. Tests
// lower it; nothing may change it concurrently with decoding.
var maxImagePixels int64 = 1 << 28

// maxImageDim bounds each image axis independently of the pixel budget.
const maxImageDim = 1 << 20

// MaxLevels is the deepest decomposition COD may declare.
const MaxLevels = 32

// Params is the codestream-level configuration carried by the SIZ/COD/QCD/QCC
// markers. Deviations from the standard's field semantics (documented in
// DESIGN.md): the QCD/QCC step exponents are absolute rather than relative to
// the band's nominal dynamic range, and per-band maximum bit-plane counts are
// carried explicitly alongside the steps.
//
// All components share the image geometry, bit depth and coding style (equal
// Ssiz, XRsiz = YRsiz = 1); quantization is per component: Mb[c][b] and
// Steps[c][b] index component c, band b (dwt.Subbands order). Component 0's
// values travel in the QCD marker, further components in one QCC each.
type Params struct {
	Width, Height int
	TileW, TileH  int // tile grid; equal to image size for single-tile
	NComp         int // Csiz; 0 is treated as 1 for backward compatibility
	BitDepth      int
	Levels        int
	Layers        int
	CBW, CBH      int  // code-block size (powers of two, 4 to 64)
	MCT           bool // inter-component transform applied to components 0-2
	Kernel        dwt.Kernel
	GuardBits     int
	Steps         [][]quant.Step // per component, per band; empty for Rev53
	Mb            [][]int        // per component, per band nominal max bit-planes
	ROIShift      int            // MAXSHIFT ROI scaling value (RGN marker); 0 = no ROI

	// Error-resilience tools (all default off, leaving default bitstreams
	// bit-identical): UseSOP prefixes every packet with a sequence-numbered
	// SOP marker and UseEPH terminates every packet header with an EPH marker
	// (Scod bits 1 and 2), giving a resilient decoder resynchronization
	// points; SegSym flags segmentation symbols in the COD code-block style
	// byte — the tier-1 coder must be run with the matching option.
	UseSOP bool
	UseEPH bool
	SegSym bool

	// Optional tier-1 code-block coding styles, signalled alongside SegSym in
	// the COD code-block style byte: arithmetic bypass (bit 0x01), per-pass
	// context reset (0x02), per-pass segment termination (0x04) and vertically
	// stripe-causal contexts (0x08). All default off, leaving default
	// bitstreams bit-identical; the tier-1 coder must run with the matching
	// modes (CoderModes).
	Bypass   bool
	ResetCtx bool
	TermAll  bool
	Causal   bool
}

// CoderModes returns the tier-1 coder modes the COD marker signals; both the
// packet machinery (TileCoder.Modes) and the tier-1 coders must run with the
// same value for a codestream to round-trip.
func (p Params) CoderModes() t1.Modes {
	return t1.Modes{
		Bypass:   p.Bypass,
		ResetCtx: p.ResetCtx,
		TermAll:  p.TermAll,
		Causal:   p.Causal,
		SegSym:   p.SegSym,
	}
}

// Components returns the component count, treating the zero value as a
// single-component stream.
func (p Params) Components() int {
	if p.NComp < 1 {
		return 1
	}
	return p.NComp
}

// NumTiles returns the tile grid dimensions.
func (p Params) NumTiles() (int, int) {
	tx := (p.Width + p.TileW - 1) / p.TileW
	ty := (p.Height + p.TileH - 1) / p.TileH
	return tx, ty
}

// Clamp normalizes a decode's resolution and quality limits to the stream:
// discard (the levels to drop) is clamped to [0, Levels], and a layer limit
// of 0 or less, or above Layers, means every layer.
func (p *Params) Clamp(discard, layers int) (int, int) {
	if layers <= 0 || layers > p.Layers {
		layers = p.Layers
	}
	return min(max(discard, 0), p.Levels), layers
}

// CheckGeometry is the one rule for a Params, written or read: every SIZ and
// COD field is in the range its marker carries and this codec implements, and
// the per-component per-band header arrays cover the decomposition COD
// declares. The encoder checks the Params it is about to write with it, and
// Scanner.Scan checks every Params it reads, so a consumer that indexes
// Mb/Steps by (component, band) — the decoder, the Index — gets a stream it
// can index or an error, never a panic.
func (p Params) CheckGeometry() error {
	if err := p.checkSIZ(); err != nil {
		return err
	}
	if err := p.checkCOD(); err != nil {
		return err
	}
	nc := p.Components()
	if p.MCT && nc != 3 {
		return fmt.Errorf("t2: MCT flagged on a %d-component stream (needs exactly 3)", nc)
	}
	if len(p.Mb) < nc {
		return fmt.Errorf("t2: quantization for %d of %d components", len(p.Mb), nc)
	}
	nbands := 1 + 3*p.Levels
	for ci := 0; ci < nc; ci++ {
		if len(p.Mb[ci]) < nbands {
			return fmt.Errorf("t2: component %d QCD/QCC carries %d bands, %d levels need %d",
				ci, len(p.Mb[ci]), p.Levels, nbands)
		}
		if p.Kernel == dwt.Irr97 {
			if len(p.Steps) <= ci || len(p.Steps[ci]) < nbands {
				ns := 0
				if len(p.Steps) > ci {
					ns = len(p.Steps[ci])
				}
				return fmt.Errorf("t2: component %d QCD/QCC carries %d steps, %d levels need %d",
					ci, ns, p.Levels, nbands)
			}
		}
	}
	return nil
}

// checkSIZ is the range rule for the SIZ fields. The sample budget covers all
// components (decoders allocate one plane per component), so a tiny header
// cannot multiply a legal per-plane size by Csiz.
func (p *Params) checkSIZ() error {
	nc := p.Components()
	if nc > maxComponents {
		return fmt.Errorf("t2: %d components exceeds the %d limit", nc, maxComponents)
	}
	if p.Width <= 0 || p.Height <= 0 || p.Width > maxImageDim || p.Height > maxImageDim ||
		int64(p.Width)*int64(p.Height)*int64(nc) > maxImagePixels {
		return fmt.Errorf("t2: implausible image size %dx%dx%d (axis limit %d, maxImagePixels %d)",
			p.Width, p.Height, nc, maxImageDim, maxImagePixels)
	}
	// A tile larger than the image is legal (one tile, clipped to the image
	// wherever the size is used), so only the axis bound applies.
	if p.TileW <= 0 || p.TileH <= 0 || p.TileW > maxImageDim || p.TileH > maxImageDim {
		return fmt.Errorf("t2: implausible tile size %dx%d", p.TileW, p.TileH)
	}
	if p.BitDepth < 1 || p.BitDepth > 16 {
		return fmt.Errorf("t2: unsupported bit depth %d", p.BitDepth)
	}
	return nil
}

// checkCOD is the range rule for the COD fields. COD carries a code-block
// side as its exponent, so any side but a power of two would be written as
// another one.
func (p *Params) checkCOD() error {
	if p.Levels < 0 || p.Levels > MaxLevels || p.Layers < 1 || p.Layers > 0xFFFF ||
		!codeBlockSide(p.CBW) || !codeBlockSide(p.CBH) {
		return fmt.Errorf("t2: implausible COD (levels %d, layers %d, cb %dx%d)",
			p.Levels, p.Layers, p.CBW, p.CBH)
	}
	return nil
}

// codeBlockSide reports whether n is a code-block side COD can carry.
func codeBlockSide(n int) bool { return n >= 4 && n <= 64 && n&(n-1) == 0 }

func put16(b []byte, v int) []byte { return append(b, byte(v>>8), byte(v)) }
func put32(b []byte, v int) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// appendQuant serializes the shared tail of QCD/QCC: the Sqcd/Sqcc byte
// followed by the per-band values of one component.
func appendQuant(out []byte, p Params, ci int) []byte {
	style := byte(0)
	if p.Kernel == dwt.Irr97 {
		style = 2
	}
	out = append(out, byte(p.GuardBits)<<5|style)
	if ci >= len(p.Mb) {
		return out
	}
	for i, mb := range p.Mb[ci] {
		out = append(out, byte(mb))
		if p.Kernel == dwt.Irr97 {
			s := p.Steps[ci][i]
			out = put16(out, s.Exponent<<11|s.Mantissa)
		}
	}
	return out
}

// WriteCodestream serializes the full codestream: main header, one tile-part
// per tile (in raster order), EOC. Multi-component streams carry Csiz = NComp
// in SIZ, the MCT flag in COD, component 0's quantization in QCD and one QCC
// marker per further component.
func WriteCodestream(p Params, tiles [][]byte) []byte {
	// One allocation: the main header's size is bounded by its per-component
	// markers (SIZ entry, QCD/QCC with at most 3 bytes per band, RGN), each
	// tile-part header is 14 bytes, EOC 2.
	n := 64 + p.Components()*(16+3*(1+3*p.Levels)) + 2
	for _, td := range tiles {
		n += 14 + len(td)
	}
	out := appendMainHeader(make([]byte, 0, n), p)
	for i, td := range tiles {
		out = appendSOT(out, i, len(td))
		out = append(out, td...)
	}
	out = put16(out, mEOC)
	return out
}

// appendMainHeader serializes SOC plus the main-header markers (SIZ, COD,
// QCD/QCC, RGN) — everything before the first tile-part. Shared between
// WriteCodestream and Index.CopyPrefix so a layer-truncated re-emission can
// never drift from the canonical writer.
func appendMainHeader(out []byte, p Params) []byte {
	nc := p.Components()
	out = put16(out, mSOC)

	// SIZ
	out = put16(out, mSIZ)
	out = put16(out, 38+3*nc) // Lsiz
	out = put16(out, 0)       // Rsiz
	out = put32(out, p.Width)
	out = put32(out, p.Height)
	out = put32(out, 0) // XOsiz
	out = put32(out, 0) // YOsiz
	out = put32(out, p.TileW)
	out = put32(out, p.TileH)
	out = put32(out, 0)  // XTOsiz
	out = put32(out, 0)  // YTOsiz
	out = put16(out, nc) // Csiz
	for ci := 0; ci < nc; ci++ {
		out = append(out, byte(p.BitDepth-1), 1, 1) // Ssiz, XRsiz, YRsiz
	}

	// COD
	out = put16(out, mCOD)
	out = put16(out, 12)
	scod := byte(0) // default precincts
	if p.UseSOP {
		scod |= 0x02
	}
	if p.UseEPH {
		scod |= 0x04
	}
	out = append(out, scod)
	out = append(out, 0)       // progression: LRCP
	out = put16(out, p.Layers) // number of layers
	if p.MCT {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = append(out, byte(p.Levels))
	out = append(out, byte(log2i(p.CBW)-2), byte(log2i(p.CBH)-2))
	cbStyle := byte(0)
	if p.Bypass {
		cbStyle |= 0x01 // arithmetic bypass (lazy coding)
	}
	if p.ResetCtx {
		cbStyle |= 0x02 // context reset on pass boundaries
	}
	if p.TermAll {
		cbStyle |= 0x04 // termination on every pass
	}
	if p.Causal {
		cbStyle |= 0x08 // vertically stripe-causal contexts
	}
	if p.SegSym {
		cbStyle |= 0x20 // segmentation symbols
	}
	out = append(out, cbStyle)
	if p.Kernel == dwt.Rev53 {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}

	// QCD (component 0): guard bits + per-band (Mb byte [+ step halfword for
	// 9/7]); QCC for each further component. Components beyond len(p.Mb)
	// carry no quantization marker (a zero-value Params still serializes,
	// matching the pre-multi-component tolerance for empty Mb). Marker
	// lengths are measured from the serialized tail so they can never drift
	// from appendQuant's layout.
	var tailBuf [1 + 3*(1+3*MaxLevels)]byte // Sqcd plus 3 bytes for each band
	tail := appendQuant(tailBuf[:0], p, 0)
	out = put16(out, mQCD)
	out = put16(out, 2+len(tail))
	out = append(out, tail...)
	for ci := 1; ci < nc && ci < len(p.Mb); ci++ {
		tail = appendQuant(tail[:0], p, ci)
		out = put16(out, mQCC)
		out = put16(out, 3+len(tail))
		out = append(out, byte(ci)) // Cqcc (one byte: Csiz <= maxComponents < 257)
		out = append(out, tail...)
	}

	// RGN: MAXSHIFT region of interest, one marker per component.
	if p.ROIShift > 0 {
		for ci := 0; ci < nc; ci++ {
			out = put16(out, mRGN)
			out = put16(out, 5)
			out = append(out, byte(ci), 1, byte(p.ROIShift)) // Crgn, Srgn=maxshift, SPrgn
		}
	}

	return out
}

// appendSOT serializes one tile-part header: SOT through SOD, for a body of
// bodyLen bytes.
func appendSOT(out []byte, isot, bodyLen int) []byte {
	out = put16(out, mSOT)
	out = put16(out, 10)
	out = put16(out, isot)
	out = put32(out, 12+2+bodyLen) // Psot: SOT..end of data
	out = append(out, 0, 1)        // TPsot, TNsot
	return put16(out, mSOD)
}

func log2i(v int) int {
	k := 0
	for v > 1 {
		v >>= 1
		k++
	}
	return k
}

// readQuant parses the shared tail of QCD/QCC (Sqcd/Sqcc byte plus per-band
// values) given the byte count the marker length leaves for it.
func (r *sreader) readQuant(tail int) (guard int, mb []int, steps []quant.Step, err error) {
	sq, err := r.u8()
	if err != nil {
		return 0, nil, nil, err
	}
	guard = sq >> 5
	style := sq & 0x1F
	perBand := 1
	if style == 2 {
		perBand = 3
	}
	nb := (tail - 1) / perBand
	if nb < 0 || nb > 1+3*MaxLevels {
		return 0, nil, nil, fmt.Errorf("t2: implausible quantization band count %d", nb)
	}
	mb = carve(&r.bands, nb)
	if style == 2 {
		steps = carve(&r.stepv, nb)
	}
	for i := 0; i < nb; i++ {
		v, err := r.u8()
		if err != nil {
			return 0, nil, nil, err
		}
		mb[i] = v
		if style == 2 {
			s, err := r.u16()
			if err != nil {
				return 0, nil, nil, err
			}
			steps[i] = quant.Step{Exponent: s >> 11, Mantissa: s & 0x7FF}
		}
	}
	return guard, mb, steps, nil
}

// carve returns the next n elements of *arena, growing it when full; a
// slice carved before a growth keeps the old backing array.
func carve[T any](arena *[]T, n int) []T {
	a := *arena
	if cap(a)-len(a) < n {
		a = make([]T, len(a), 2*cap(a)+n)
	}
	*arena = a[:len(a)+n]
	return a[len(a) : len(a)+n : len(a)+n]
}

// ContainerDamage counts what the resilient container walk had to skip or
// re-bound to keep parsing a damaged codestream.
type ContainerDamage struct {
	Truncated    bool // stream ended (or became unparseable) before EOC
	BadMarkers   int  // unknown marker segments skipped by declared length
	BadTileParts int  // tile-parts with implausible Psot, re-bounded by scanning
	BadStyles    int  // unsupported COD signalling (precincts, progression, style bits) ignored
}

// Any reports whether the walk recorded any container-level damage.
func (d ContainerDamage) Any() bool {
	return d.Truncated || d.BadMarkers > 0 || d.BadTileParts > 0 || d.BadStyles > 0
}

// readSIZ parses the SIZ segment into p and applies checkSIZ before any
// per-component array is sized, so a corrupt header cannot demand absurd
// allocations downstream.
func (r *sreader) readSIZ(p *Params) error {
	if _, err := r.u16(); err != nil { // Lsiz
		return err
	}
	if _, err := r.u16(); err != nil { // Rsiz
		return err
	}
	var err error
	if p.Width, err = r.u32(); err != nil {
		return err
	}
	if p.Height, err = r.u32(); err != nil {
		return err
	}
	for i := 0; i < 2; i++ { // XOsiz YOsiz
		if _, err = r.u32(); err != nil {
			return err
		}
	}
	if p.TileW, err = r.u32(); err != nil {
		return err
	}
	if p.TileH, err = r.u32(); err != nil {
		return err
	}
	for i := 0; i < 2; i++ { // XTOsiz YTOsiz
		if _, err = r.u32(); err != nil {
			return err
		}
	}
	ncomp, err := r.u16()
	if err != nil {
		return err
	}
	if ncomp < 1 || ncomp > maxComponents {
		return fmt.Errorf("t2: %d components out of range [1, %d]", ncomp, maxComponents)
	}
	p.NComp = ncomp
	for ci := 0; ci < ncomp; ci++ {
		ssiz, err := r.u8()
		if err != nil {
			return err
		}
		depth := ssiz&0x7F + 1
		if ci == 0 {
			p.BitDepth = depth
		} else if depth != p.BitDepth {
			return fmt.Errorf("t2: component %d depth %d differs from component 0's %d",
				ci, depth, p.BitDepth)
		}
		xr, err := r.u8()
		if err != nil {
			return err
		}
		yr, err := r.u8()
		if err != nil {
			return err
		}
		if xr != 1 || yr != 1 {
			return fmt.Errorf("t2: component %d subsampling %dx%d unsupported", ci, xr, yr)
		}
	}
	if err := p.checkSIZ(); err != nil {
		return err
	}
	r.mb, r.steps, r.qccSeen = grow(r.mb, ncomp), grow(r.steps, ncomp), grow(r.qccSeen, ncomp)
	clear(r.mb)
	clear(r.steps)
	clear(r.qccSeen)
	p.Mb, p.Steps = r.mb, r.steps
	return nil
}

// codBlockStyles is the set of COD code-block style bits this decoder
// implements: bypass (0x01), context reset (0x02), per-pass termination
// (0x04), stripe-causal contexts (0x08) and segmentation symbols (0x20).
const codBlockStyles = 0x2F

// readCOD parses the COD segment into p, including the error-resilience and
// coding-style signalling: SOP/EPH use from the Scod bits, the tier-1 coder
// modes from the code-block style byte. Signalling this decoder does not
// implement — a segment length other than 12 or Scod bit 0 (user-defined
// precincts), a progression order other than LRCP, unknown code-block style
// bits (e.g. 0x10 predictable termination) — would silently mis-decode every
// packet or code-block, so strict parsing rejects it; resilient parsing
// reads the fields it knows and masks the rest off — packet resync and tier-1
// concealment then bound the damage — counting each in dmg.BadStyles.
func (r *sreader) readCOD(p *Params, resilient bool, dmg *ContainerDamage) error {
	lcod, err := r.u16()
	if err != nil {
		return err
	}
	scod, err := r.u8()
	if err != nil {
		return err
	}
	prog, err := r.u8()
	if err != nil {
		return err
	}
	if lcod != 12 || scod&0x01 != 0 || prog != 0 {
		if !resilient {
			return fmt.Errorf("t2: unsupported COD (Lcod %d, Scod %#02x, progression %d): only LRCP with default precincts", lcod, scod, prog)
		}
		dmg.BadStyles++
	}
	p.UseSOP = scod&0x02 != 0
	p.UseEPH = scod&0x04 != 0
	if p.Layers, err = r.u16(); err != nil {
		return err
	}
	mct, err := r.u8()
	if err != nil {
		return err
	}
	p.MCT = mct&1 == 1
	if p.Levels, err = r.u8(); err != nil {
		return err
	}
	xcb, err := r.u8()
	if err != nil {
		return err
	}
	ycb, err := r.u8()
	if err != nil {
		return err
	}
	p.CBW, p.CBH = 1<<(xcb+2), 1<<(ycb+2)
	cbStyle, err := r.u8()
	if err != nil {
		return err
	}
	if unknown := cbStyle &^ codBlockStyles; unknown != 0 {
		if !resilient {
			return fmt.Errorf("t2: unsupported COD code-block style bits %#02x", unknown)
		}
		dmg.BadStyles++
		cbStyle &= codBlockStyles
	}
	p.Bypass = cbStyle&0x01 != 0
	p.ResetCtx = cbStyle&0x02 != 0
	p.TermAll = cbStyle&0x04 != 0
	p.Causal = cbStyle&0x08 != 0
	p.SegSym = cbStyle&0x20 != 0
	tr, err := r.u8()
	if err != nil {
		return err
	}
	if tr == 1 {
		p.Kernel = dwt.Rev53
	} else {
		p.Kernel = dwt.Irr97
	}
	return p.checkCOD()
}

func (r *sreader) readQCD(p *Params) error {
	if p.NComp == 0 {
		return fmt.Errorf("t2: QCD before SIZ")
	}
	lqcd, err := r.u16()
	if err != nil {
		return err
	}
	guard, mb, steps, err := r.readQuant(lqcd - 2)
	if err != nil {
		return err
	}
	p.GuardBits = guard
	// QCD is the default for every component; QCC overrides one.
	for ci := 0; ci < p.NComp; ci++ {
		if !r.qccSeen[ci] {
			p.Mb[ci] = mb
			p.Steps[ci] = steps
		}
	}
	return nil
}

func (r *sreader) readQCC(p *Params) error {
	if p.NComp == 0 {
		return fmt.Errorf("t2: QCC before SIZ")
	}
	lqcc, err := r.u16()
	if err != nil {
		return err
	}
	ci, err := r.u8() // Cqcc (one byte: Csiz <= maxComponents < 257)
	if err != nil {
		return err
	}
	if ci >= p.NComp {
		return fmt.Errorf("t2: QCC for component %d of %d", ci, p.NComp)
	}
	_, mb, steps, err := r.readQuant(lqcc - 3)
	if err != nil {
		return err
	}
	p.Mb[ci] = mb
	p.Steps[ci] = steps
	r.qccSeen[ci] = true
	return nil
}

func (r *sreader) readRGN(p *Params) error {
	if _, err := r.u16(); err != nil { // Lrgn
		return err
	}
	if _, err := r.u8(); err != nil { // Crgn
		return err
	}
	if _, err := r.u8(); err != nil { // Srgn
		return err
	}
	var err error
	if p.ROIShift, err = r.u8(); err != nil {
		return err
	}
	return nil
}
