// Package jp2k is the top-level JPEG2000 codec: it chains the coding pipeline
// of the paper's Fig. 1 — setup, (inter-/intra-component) transform,
// quantization, tier-1 entropy coding of independent code-blocks, rate
// allocation, tier-2 packet assembly and bitstream I/O — over the substrate
// packages, with the paper's parallelization applied to the transform,
// quantization and tier-1 stages.
package jp2k

import (
	"context"
	"fmt"
	"strings"
	"time"

	"pj2k/internal/amdahl"
	"pj2k/internal/core"
	"pj2k/internal/dwt"
)

// Options configures the encoder.
type Options struct {
	// Kernel selects reversible 5/3 (lossless unless Layers truncate) or
	// irreversible 9/7 coding. Default Rev53.
	Kernel dwt.Kernel
	// Levels is the decomposition depth, 1 to t2.MaxLevels; 0 selects the
	// default 5 (the JPEG2000 default the paper cites), so a zero-level
	// transform cannot be requested.
	Levels int
	// LayerBPP lists cumulative target bitrates (bits per pixel) for the
	// quality layers, ascending. Empty means a single layer carrying all
	// coded data (lossless for Rev53).
	LayerBPP []float64
	// TileW, TileH enable image tiling when positive (the Fig. 4/5 mode);
	// zero encodes the whole image as a single tile.
	TileW, TileH int
	// CBW, CBH are the code-block dimensions (powers of two, at most 64).
	// Default 64x64, the JPEG2000 maximum the paper cites.
	CBW, CBH int
	// BaseStep is the 9/7 base quantizer step before per-band norm scaling.
	// Smaller steps mean more bit-planes for PCRD to choose from. Default
	// 1.0/512.
	BaseStep float64
	// BitDepth of the input samples; default 8.
	BitDepth int
	// Workers bounds the parallelism of the transform, quantization and
	// tier-1 stages; <= 0 selects GOMAXPROCS, 1 is fully serial.
	Workers int
	// MCT applies the inter-component transform to a three-component
	// EncodePlanar input (the reversible color transform for Rev53, the
	// irreversible YCbCr rotation for Irr97) and flags it in the codestream's
	// COD marker. Under lossy rate control the byte budget splits luma-heavy
	// between the components. Setting it with any other component count
	// (including single-component Encode) is an error.
	MCT bool
	// VertMode and VertBlockWidth select the vertical filtering strategy
	// (the paper's original vs. improved filter). The zero value is the
	// improved (blocked) filter; the two are bit-identical.
	VertMode       dwt.VertMode
	VertBlockWidth int
	// ROI selects a region of interest coded with the MAXSHIFT method (the
	// "ROI scaling" stage of the paper's Fig. 1 pipeline): coefficients
	// whose spatial footprint intersects the rectangle are up-shifted past
	// every background bit-plane, so they decode first at any truncation
	// point. Nil disables ROI coding.
	ROI *ROIRect
	// Resilience selects the standard's error-resilience tools. All default
	// off, leaving default bitstreams bit-identical.
	Resilience ResilienceOptions
	// Coder selects the standard's optional tier-1 code-block coding styles.
	// All default off, leaving default bitstreams bit-identical; decoders
	// need no side-channel — the styles are signalled in COD.
	Coder CoderOptions
}

// CoderOptions selects the JPEG2000 Part 1 optional code-block coding styles
// (the COD marker's code-block style bits), mirroring ResilienceOptions.
// These trade a little compression for coder speed and decoder parallelism.
type CoderOptions struct {
	// Bypass (arithmetic bypass, "lazy" coding) codes significance and
	// refinement passes from the fourth significant bit-plane on as raw
	// stuffed bits, skipping the MQ coder where most coded data lives — the
	// biggest tier-1 speed lever among the Part 1 styles.
	Bypass bool
	// TermAll terminates the codeword segment at every coding pass, giving
	// each pass an independently positioned byte range, so a decoder can
	// locate every pass without decoding the ones before it.
	TermAll bool
	// ResetCtx resets the MQ context states at every pass boundary, making
	// passes statistically independent (costs compression, aids parallel or
	// error-resilient decoders).
	ResetCtx bool
	// Causal makes context formation vertically stripe-causal: the last row
	// of each 4-row stripe ignores the stripe below, removing the
	// inter-stripe dependency.
	Causal bool
}

// ResilienceOptions selects the JPEG2000 Part 1 error-resilience tools, the
// markers that let a resilient decoder localize damage instead of losing the
// tile: all are signalled in the codestream (COD), so decoders need no
// side-channel. Each costs a little rate — 6 bytes per packet for SOP, 2 for
// EPH, roughly a byte per code-block pass for segmentation symbols.
type ResilienceOptions struct {
	// SOP writes a start-of-packet marker (with a wrapping sequence number)
	// before every packet — the resync anchor resilient decoding scans for
	// after a malformed packet.
	SOP bool
	// EPH writes an end-of-packet-header marker after every packet header,
	// letting a decoder detect a corrupt header the moment its bit walk
	// terminates in the wrong place.
	EPH bool
	// SegSymbols terminates every cleanup pass with the four-symbol
	// segmentation marker, giving the tier-1 decoder a per-pass checkpoint:
	// corruption is detected at the pass that hit it and concealment keeps
	// every clean pass before it.
	SegSymbols bool
}

// ROIRect is a region of interest in image coordinates ([X0,X1) x [Y0,Y1)).
type ROIRect struct {
	X0, Y0, X1, Y1 int
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Levels == 0 {
		o.Levels = 5
	}
	if o.CBW == 0 {
		o.CBW = 64
	}
	if o.CBH == 0 {
		o.CBH = 64
	}
	if o.BaseStep == 0 {
		o.BaseStep = 1.0 / 512
	}
	if o.BitDepth == 0 {
		o.BitDepth = 8
	}
	o.Workers = core.Workers(o.Workers)
	return o
}

// StageTimings records where encoding time went, mirroring the stage
// decomposition of the paper's Figs. 3, 6 and 9. Every field is the wall time
// of its stage's dispatch; the spans are disjoint parts of the call, so their
// sum never exceeds it.
type StageTimings struct {
	Setup     time.Duration // pipeline setup: buffers, level shift, tiling, code-block grids
	InterComp time.Duration // inter-component (multiple-component) transform
	IntraComp time.Duration // wavelet transform (intra-component transform)
	Quant     time.Duration // quantization (9/7 only) and ROI up-shift
	Tier1     time.Duration // code-block entropy coding
	RateAlloc time.Duration // PCRD truncation-point search
	Tier2     time.Duration // packet headers + assembly
	StreamIO  time.Duration // marker segments, final byte stream
}

// Spans returns the stage times in EncStageNames order.
func (s StageTimings) Spans() [NumEncStages]time.Duration {
	return [...]time.Duration{s.Setup, s.InterComp, s.IntraComp, s.Quant, s.Tier1, s.RateAlloc, s.Tier2, s.StreamIO}
}

// total sums all stages.
func (s StageTimings) total() time.Duration {
	sp := s.Spans()
	return sumSpans(sp[:])
}

// Profile is the Amdahl profile of the encode: its stage times split by
// EncStageParallel.
func (s StageTimings) Profile() amdahl.Profile {
	sp := s.Spans()
	return profile(sp[:], EncStageParallel[:])
}

// Breakdown renders the per-stage timing table the CLIs print under -verbose,
// under the stage labels /metrics uses; the same span values feed
// CodecMetrics, so the printed breakdown and the /metrics histograms can never
// disagree about where time went.
func (s StageTimings) Breakdown() string {
	sp := s.Spans()
	return breakdown(sp[:], EncStageNames[:], EncStageParallel[:])
}

// EncodeStats is returned alongside the codestream.
type EncodeStats struct {
	Timings    StageTimings
	Bytes      int
	BPP        float64
	CodeBlocks int
	// Tier-1 work accounting (DESIGN.md §8): how much of the coding tier-1
	// could have done it did, and how much of that the final layer kept.
	PassesPossible int // coding passes of every block coded to its last bit-plane
	PassesCoded    int // coding passes tier-1 ran, pilot and re-codes included
	PassesKept     int // coding passes the final layer includes
	PilotBlocks    int // blocks coded in full ahead of the rest to set the stop threshold
	BlocksStopped  int // blocks the stop rule ended early
	BlocksRecoded  int // stopped blocks coded again in full because the post-check failed
}

// CodedShare is the fraction of the possible tier-1 coding passes the encoder
// ran: 1 when nothing was stopped early, below 1 when rate control let tier-1
// stop, above 1 only if re-codes outweighed the savings.
func (s *EncodeStats) CodedShare() float64 {
	if s.PassesPossible == 0 {
		return 1
	}
	return float64(s.PassesCoded) / float64(s.PassesPossible)
}

// Tier1Work renders the tier-1 work accounting the CLIs print under the stage
// table.
func (s *EncodeStats) Tier1Work() string {
	return fmt.Sprintf("  tier-1 passes: %d possible, %d coded (%.0f%%), %d kept by the final layer\n"+
		"  tier-1 blocks: %d, %d pilot, %d stopped early, %d re-coded\n",
		s.PassesPossible, s.PassesCoded, 100*s.CodedShare(), s.PassesKept,
		s.CodeBlocks, s.PilotBlocks, s.BlocksStopped, s.BlocksRecoded)
}

// DecodeTimings records where decoding time went: like StageTimings, every
// field is the wall time of its stage's dispatch — what a request actually
// waited for.
type DecodeTimings struct {
	Parse     time.Duration // codestream markers + geometry validation
	Tier2     time.Duration // packet-header walk, segment gathering
	Tier1     time.Duration // code-block entropy decoding, written (9/7: dequantized) into the coefficient planes
	Assemble  time.Duration // inverse DWT + copy of the window into the output
	InterComp time.Duration // inverse multiple-component transform
}

// Spans returns the stage times in DecStageNames order.
func (t DecodeTimings) Spans() [NumDecStages]time.Duration {
	return [...]time.Duration{t.Parse, t.Tier2, t.Tier1, t.Assemble, t.InterComp}
}

// total sums all stages.
func (t DecodeTimings) total() time.Duration {
	sp := t.Spans()
	return sumSpans(sp[:])
}

// Profile is the Amdahl profile of the decode: its stage times split by
// DecStageParallel.
func (t DecodeTimings) Profile() amdahl.Profile {
	sp := t.Spans()
	return profile(sp[:], DecStageParallel[:])
}

// Breakdown renders the per-stage timing table the CLIs print under -verbose.
func (t DecodeTimings) Breakdown() string {
	sp := t.Spans()
	return breakdown(sp[:], DecStageNames[:], DecStageParallel[:])
}

func sumSpans(spans []time.Duration) (total time.Duration) {
	for _, d := range spans {
		total += d
	}
	return total
}

func profile(spans []time.Duration, parallel []bool) (p amdahl.Profile) {
	for i, d := range spans {
		if parallel[i] {
			p.Parallel += d.Seconds()
		} else {
			p.Sequential += d.Seconds()
		}
	}
	return p
}

func breakdown(spans []time.Duration, names []string, parallel []bool) string {
	var b strings.Builder
	for i, d := range spans {
		class := "serial"
		if parallel[i] {
			class = "parallel"
		}
		fmt.Fprintf(&b, "  %-10s %9.3f ms  %s\n", names[i], float64(d)/1e6, class)
	}
	fmt.Fprintf(&b, "  %-10s %9.3f ms\n", "total", float64(sumSpans(spans))/1e6)
	return b.String()
}

// DecodeStats describes the most recent decode on a Decoder (see
// Decoder.Stats): stage timings plus input accounting. It is valid until the
// next decode call.
type DecodeStats struct {
	Timings    DecodeTimings
	BytesIn    int // tile-part body bytes of the selected tiles (the headers are not counted)
	Tiles      int // tiles selected (all of them for full decodes)
	CodeBlocks int // code-blocks entropy-decoded
}

// DecodeOptions configures the decoder.
type DecodeOptions struct {
	// Resilient selects best-effort decoding: instead of failing the decode,
	// container damage is salvaged around, malformed packets resync to the
	// next SOP marker (or truncate the tile's quality), and corrupt
	// code-blocks are concealed at their last clean coding pass. What was
	// lost is reported through Decoder.Damage. A clean stream decodes
	// bit-identically to strict mode with an empty report.
	Resilient bool
	// Ctx, when non-nil, bounds the decode: cancellation or deadline expiry
	// is checked between pipeline stages (packet walk, tier-1, assembly), so
	// a decode stops within one dispatch unit of the context ending.
	Ctx context.Context
	// MaxLayers decodes only the first n quality layers when positive.
	MaxLayers int
	// DiscardLevels drops the n highest resolution levels, reconstructing
	// the image at 1/2^n scale per axis — the resolution-scalable decode
	// JPEG2000's packet structure exists for. Code-blocks of discarded
	// resolutions are parsed but never entropy-decoded.
	DiscardLevels int
	// Workers bounds every goroutine a decode uses, in every stage and every
	// coder mode; <= 0 is GOMAXPROCS, and 1 decodes on the calling goroutine
	// without dispatching onto the pool.
	Workers int
	// VertMode selects the inverse vertical filtering strategy; the zero
	// value is the improved (blocked) filter.
	VertMode       dwt.VertMode
	VertBlockWidth int
}
