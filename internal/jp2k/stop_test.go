package jp2k

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/quant"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
	"pj2k/internal/telemetry"
)

// encodeWithLambda encodes on a fresh Encoder whose stop threshold is the
// pilot's cut-off slope passed through hook (nil: the production halving).
func encodeWithLambda(t testing.TB, pl *raster.Planar, o Options, hook func(float64) float64) ([]byte, EncodeStats) {
	t.Helper()
	e := NewEncoder()
	defer e.Close()
	e.stopLambda = hook
	cs, st, err := e.EncodePlanar(pl, o)
	if err != nil {
		t.Fatal(err)
	}
	return cs, *st
}

func forceFull(float64) float64 { return 0 }

// stopCases are the option sets the stop rule must leave byte-identical: the
// golden matrix, every coder style, the determinism cases, and the two lossy
// shapes of the encode-batch workload at a quarter of their size.
type stopCase struct {
	name string
	pl   *raster.Planar
	o    Options
}

func stopCases() []stopCase {
	gray := raster.Gray(goldenGray())
	cases := []stopCase{
		{"gray-97-layered", gray, Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 1.0}}},
		{"gray-97-roi", gray, Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.5}, ROI: &ROIRect{X0: 30, Y0: 20, X1: 120, Y1: 100}}},
		{"gray-53-layered-tiled", gray, Options{Kernel: dwt.Rev53, LayerBPP: []float64{0.1, 0.6, 2}, TileW: 64, TileH: 96, CBW: 32, CBH: 16, Levels: 3}},
		{"color-97-mct-layered", goldenColor(), Options{Kernel: dwt.Irr97, MCT: true, LayerBPP: []float64{1.0}}},
		{"color-97-nomct-starved", goldenColor(), Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.05, 0.2}}},
		{"gray-97-resilient", gray, Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.5, 1.5}, TileW: 100, TileH: 90,
			Resilience: ResilienceOptions{SOP: true, EPH: true, SegSymbols: true}}},
		{"batch-G2", raster.Gray(raster.Synthetic(512, 512, 21)), Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 1.0},
			TileW: 128, TileH: 128, VertMode: dwt.VertBlocked}},
		{"batch-C1", raster.RGB(raster.Synthetic(256, 256, 22), raster.Synthetic(256, 256, 23), raster.Synthetic(256, 256, 24)),
			Options{Kernel: dwt.Irr97, MCT: true, LayerBPP: []float64{1.0}, VertMode: dwt.VertBlocked}},
	}
	for _, cc := range coderCombos {
		cases = append(cases, stopCase{"coder-" + cc.name, gray, Options{
			Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 1.0}, TileW: 64, TileH: 96, Coder: cc.coder}})
	}
	for i, o := range determinismCases() {
		cases = append(cases, stopCase{"determinism-" + string(rune('0'+i)), gray, o})
	}
	return cases
}

// TestStopRuleMatchesFullCoding is the equivalence the whole design rests on:
// stopping tier-1 early changes how much is coded and never what comes out.
func TestStopRuleMatchesFullCoding(t *testing.T) {
	stopped := 0
	for _, c := range stopCases() {
		for _, w := range []int{1, 3} {
			o := c.o
			o.Workers = w
			want, full := encodeWithLambda(t, c.pl, o, forceFull)
			got, st := encodeWithLambda(t, c.pl, o, nil)
			if !bytes.Equal(got, want) {
				t.Errorf("%s workers=%d: stopped encode differs from full coding (%d vs %d bytes; %d stopped, %d re-coded)",
					c.name, w, len(got), len(want), st.BlocksStopped, st.BlocksRecoded)
			}
			if full.BlocksStopped != 0 || full.PassesCoded != full.PassesPossible {
				t.Errorf("%s: forced full coding stopped %d blocks, coded %d of %d passes", c.name, full.BlocksStopped, full.PassesCoded, full.PassesPossible)
			}
			if st.PassesPossible != full.PassesPossible || st.PassesKept != full.PassesKept {
				t.Errorf("%s: possible/kept %d/%d, full coding says %d/%d", c.name, st.PassesPossible, st.PassesKept, full.PassesPossible, full.PassesKept)
			}
			stopped += st.BlocksStopped
		}
	}
	if stopped == 0 {
		t.Fatal("the stop rule never fired on any case")
	}
}

// TestStopRuleAdversarialThreshold shows that the post-check, not the
// predictor, carries correctness: with the threshold forced to +Inf (every
// block stops at its first certifiable vertex), a million times the pilot's
// value, or a millionth of it, the codestream is the same; only the work
// accounting moves.
func TestStopRuleAdversarialThreshold(t *testing.T) {
	recodes := 0
	for _, c := range stopCases() {
		if len(c.o.LayerBPP) == 0 {
			continue
		}
		o := c.o
		o.Workers = 2
		want, base := encodeWithLambda(t, c.pl, o, nil)
		for _, h := range []struct {
			name string
			hook func(float64) float64
		}{
			{"inf", func(float64) float64 { return math.Inf(1) }},
			{"x1e6", func(p float64) float64 { return p * 1e6 }},
			{"x1e-6", func(p float64) float64 { return p * 1e-6 }},
		} {
			got, st := encodeWithLambda(t, c.pl, o, h.hook)
			if !bytes.Equal(got, want) {
				t.Errorf("%s lambda %s: codestream differs (%d stopped, %d re-coded)", c.name, h.name, st.BlocksStopped, st.BlocksRecoded)
			}
			lazy := o.Coder.Bypass && !o.Coder.TermAll
			switch {
			case lazy:
				if st.BlocksStopped != 0 {
					t.Errorf("%s lambda %s: %d blocks stopped under bypass without termall", c.name, h.name, st.BlocksStopped)
				}
			case h.name == "inf":
				// Small images are all pilot; the re-code loop is exercised
				// by the cases that have blocks left to stop.
				if st.BlocksStopped < base.BlocksStopped {
					t.Errorf("%s lambda inf: %d stopped, fewer than the %d at the pilot's threshold", c.name, st.BlocksStopped, base.BlocksStopped)
				}
				recodes += st.BlocksRecoded
			case h.name == "x1e-6":
				if st.BlocksRecoded != 0 || st.PassesCoded < base.PassesCoded {
					t.Errorf("%s lambda x1e-6: %d re-coded, %d passes coded (%d at the pilot's threshold)", c.name, st.BlocksRecoded, st.PassesCoded, base.PassesCoded)
				}
			}
		}
	}
	if recodes == 0 {
		t.Fatal("no block was ever re-coded: the post-check and re-code loop went untested")
	}
}

// TestPilotSampling pins the pilot rule of DESIGN.md §8: the pilot is every
// pilotStride-th block of each (component, resolution level) group, counted
// across tiles, so every group has a pilot and a group of n blocks has
// ceil(n / pilotStride). The counts are derived from the written stream's
// geometry, the groups from dwt.ResolutionBands. On every budgeted stop case,
// and on a tiled colour one with several pilots per group, the halved
// threshold never needs a re-code, and the bytes are those of full coding.
func TestPilotSampling(t *testing.T) {
	var cases []stopCase
	for _, c := range stopCases() {
		if len(c.o.LayerBPP) > 0 {
			cases = append(cases, c)
		}
	}
	cases = append(cases, stopCase{"color-97-mct-tiled", goldenColor(), Options{Kernel: dwt.Irr97, MCT: true,
		LayerBPP: []float64{0.5, 2}, TileW: 48, TileH: 40, CBW: 8, CBH: 8}})
	stopped := 0
	for _, c := range cases {
		o := c.o
		o.Workers = 2
		e := NewEncoder()
		got, st, err := e.EncodePlanar(c.pl, o)
		if err != nil {
			t.Fatal(err)
		}
		p, _, _, err := new(t2.Scanner).Scan(t2.BytesSource(got), false)
		if err != nil {
			t.Fatal(err)
		}
		nlevels := p.Levels + 1
		level := make([]int, 1+3*p.Levels) // band index -> resolution level
		for r := range nlevels {
			lo, hi := dwt.ResolutionBands(r)
			for bi := lo; bi < hi; bi++ {
				level[bi] = r
			}
		}
		blocks := make([]int, p.NComp*nlevels)
		ntx, nty := p.NumTiles()
		var lay t2.TileLayout
		for ti := range ntx * nty {
			lay.Reshape(&p, ti)
			for ci, bands := range lay.Comps {
				for bi, bb := range bands {
					blocks[ci*nlevels+level[bi]] += len(bb.Grid.Rects)
				}
			}
		}
		pilots := make([]int, len(blocks))
		for _, j := range e.jobs {
			if j.pilot {
				pilots[j.comp*nlevels+level[j.bandIdx]]++
			}
		}
		want := 0
		for g, n := range blocks {
			k := (n + pilotStride - 1) / pilotStride // at least one for a group with blocks
			if pilots[g] != k {
				t.Errorf("%s: component %d level %d has %d pilots for %d blocks, want %d",
					c.name, g/nlevels, g%nlevels, pilots[g], n, k)
			}
			want += k
		}
		if st.PilotBlocks != want || st.CodeBlocks != len(e.jobs) {
			t.Errorf("%s: %d pilot blocks of %d, the rule gives %d of %d", c.name, st.PilotBlocks, st.CodeBlocks, want, len(e.jobs))
		}
		if st.BlocksRecoded != 0 {
			t.Errorf("%s: %d of %d stopped blocks re-coded", c.name, st.BlocksRecoded, st.BlocksStopped)
		}
		stopped += st.BlocksStopped
		e.Close()
		if full, _ := encodeWithLambda(t, c.pl, o, forceFull); !bytes.Equal(got, full) {
			t.Errorf("%s: pilot-driven encode differs from full coding", c.name)
		}
	}
	if stopped == 0 {
		t.Fatal("no block stopped: the re-code check saw nothing")
	}
}

// TestEncodeStatsPassAccounting reads the tier-1 work counters back through
// the metrics registry: a lossy encode codes fewer passes than it could have
// and re-codes nothing; a lossless one codes exactly what is possible.
func TestEncodeStatsPassAccounting(t *testing.T) {
	read := func(o Options) (possible, coded, kept, recoded int64, st EncodeStats) {
		reg := telemetry.NewRegistry()
		e := NewEncoder()
		defer e.Close()
		e.Metrics = NewCodecMetrics(reg)
		_, s, err := e.Encode(raster.Synthetic(256, 256, 5), o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		sample := func(name string) int64 {
			for _, line := range strings.Split(buf.String(), "\n") {
				if v, ok := strings.CutPrefix(line, name+" "); ok {
					n, err := strconv.ParseInt(v, 10, 64)
					if err != nil {
						t.Fatalf("%s: %v", line, err)
					}
					return n
				}
			}
			t.Fatalf("%s not exported", name)
			return 0
		}
		return sample("pj2k_codec_t1_passes_possible_total"), sample("pj2k_codec_t1_passes_coded_total"),
			sample("pj2k_codec_t1_passes_kept_total"), sample("pj2k_codec_t1_blocks_recoded_total"), *s
	}
	possible, coded, kept, recoded, st := read(Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 1.0}, TileW: 128, TileH: 128})
	if !(kept > 0 && kept < coded && coded < possible) || recoded != 0 {
		t.Errorf("lossy: possible %d coded %d kept %d recoded %d — want kept < coded < possible, no re-codes", possible, coded, kept, recoded)
	}
	if int(possible) != st.PassesPossible || int(coded) != st.PassesCoded || int(kept) != st.PassesKept {
		t.Errorf("lossy: registry %d/%d/%d disagrees with EncodeStats %+v", possible, coded, kept, st)
	}
	if st.PilotBlocks == 0 || st.BlocksStopped == 0 || st.PilotBlocks+st.BlocksStopped > st.CodeBlocks {
		t.Errorf("lossy: %d pilot, %d stopped of %d blocks", st.PilotBlocks, st.BlocksStopped, st.CodeBlocks)
	}
	possible, coded, kept, recoded, st = read(Options{Kernel: dwt.Rev53})
	if coded != possible || kept != possible || recoded != 0 || st.PilotBlocks != 0 || st.BlocksStopped != 0 {
		t.Errorf("lossless: possible %d coded %d kept %d recoded %d pilot %d stopped %d — want everything coded once and kept",
			possible, coded, kept, recoded, st.PilotBlocks, st.BlocksStopped)
	}
}

// fuzzImage builds an ncomp-plane image of the given depth from the synthetic
// generator: its 8-bit structure scaled to the depth, low bits filled with
// detail so deep images have something in every bit-plane.
func fuzzImage(w, h, ncomp, depth int, seed uint64) *raster.Planar {
	pl := raster.NewPlanar(w, h, ncomp)
	for ci, c := range pl.Comps {
		src := raster.Synthetic(w, h, seed+uint64(ci))
		for i, v := range src.Pix {
			if depth >= 8 {
				v = v<<(depth-8) | (v*37+int32(i))&(1<<(depth-8)-1)
			} else {
				v >>= 8 - depth
			}
			c.Pix[i] = v
		}
	}
	return pl
}

func planarPSNR(a, b *raster.Planar, depth int) float64 {
	var sum float64
	n := 0
	for ci := range a.Comps {
		for i, v := range a.Comps[ci].Pix {
			d := float64(v - b.Comps[ci].Pix[i])
			sum += d * d
			n++
		}
	}
	if sum == 0 {
		return math.Inf(1)
	}
	peak := float64(int(1)<<depth - 1)
	return 10 * math.Log10(peak*peak*float64(n)/sum)
}

// Bits of FuzzRoundTrip's flags argument.
const (
	fzIrr97 = 1 << iota
	fzColor
	fzMCT
	fzBypass
	fzTermAll
	fzResetCtx
	fzCausal
	fzSOP
	fzEPH
	fzSegSym
	fzROI
	fzVertBlocked
	fzDepthShift = 12 // two bits: 8, 4, 10, 12
	fzLayerShift = 14 // three bits: 0..4 layers (mod 5)
)

// fuzzParams is the codestream description an encode of a w x h image of
// ncomp components under o must write, for the Mb and Steps coverage its
// levels need: CheckGeometry's verdict on it is the verdict the encoder must
// reach.
func fuzzParams(w, h, ncomp int, o Options) t2.Params {
	o = o.withDefaults()
	p := t2.Params{
		Width: w, Height: h, TileW: w, TileH: h, NComp: ncomp, BitDepth: o.BitDepth,
		Levels: o.Levels, Layers: max(len(o.LayerBPP), 1), CBW: o.CBW, CBH: o.CBH,
		MCT: o.MCT, Kernel: o.Kernel,
	}
	if o.TileW > 0 && o.TileH > 0 {
		p.TileW, p.TileH = o.TileW, o.TileH
	}
	for range ncomp {
		p.Mb = append(p.Mb, make([]int, 1+3*o.Levels))
		p.Steps = append(p.Steps, make([]quant.Step, 1+3*o.Levels))
	}
	return p
}

// FuzzRoundTrip is the encoder's safety net: fuzzer-chosen geometry (1xN,
// primes, tiles larger than the image), depth, one or three components with or
// without the inter-component transform, decomposition depth, any code-block
// side from 1 to 80, every coder style, the resilience markers, zero to four
// layer budgets from starving to non-binding, and ROI. The encoder refuses an
// option set exactly when CheckGeometry refuses the Params it describes — the
// rule every reader applies — and returns no stream then. Whatever options it
// accepts, the 5/3 path without budgets is the identity, the 9/7 path without
// budgets clears a PSNR floor, PSNR does not fall from layer to layer, and the
// codestream is the same bytes for every worker count, on a reused Encoder,
// and with the tier-1 stop rule forced off — the invariant that makes early
// termination safe to ship.
func FuzzRoundTrip(f *testing.F) {
	layers := func(n int) uint32 { return uint32(n) << fzLayerShift }
	// Golden-matrix option sets, the coder styles, and the encode-batch shapes
	// (tiled two-layer 9/7; colour + MCT one-layer). Budgets are in units of
	// 1/200 bpp.
	f.Add(uint64(99), uint16(229), uint16(189), uint16(0), uint16(0), uint32(0), uint8(0), uint8(63), uint8(63), uint16(0), uint16(0), uint16(0), uint16(0), uint32(0))
	f.Add(uint64(99), uint16(229), uint16(189), uint16(64), uint16(96), uint32(0), uint8(3), uint8(31), uint8(15), uint16(0), uint16(0), uint16(0), uint16(0), uint32(0))
	f.Add(uint64(99), uint16(229), uint16(189), uint16(0), uint16(0), fzIrr97|layers(2), uint8(0), uint8(63), uint8(63), uint16(50), uint16(200), uint16(0), uint16(0), uint32(0))
	f.Add(uint64(99), uint16(229), uint16(189), uint16(0), uint16(0), fzIrr97|fzROI|layers(1), uint8(0), uint8(63), uint8(63), uint16(100), uint16(0), uint16(0), uint16(0), uint32(0x1e14785a))
	f.Add(uint64(7), uint16(119), uint16(87), uint16(0), uint16(0), uint32(fzColor|fzMCT), uint8(0), uint8(63), uint8(63), uint16(0), uint16(0), uint16(0), uint16(0), uint32(0))
	f.Add(uint64(7), uint16(119), uint16(87), uint16(0), uint16(0), fzIrr97|fzColor|fzMCT|layers(1), uint8(0), uint8(63), uint8(63), uint16(200), uint16(0), uint16(0), uint16(0), uint32(0))
	f.Add(uint64(21), uint16(255), uint16(255), uint16(64), uint16(64), fzIrr97|fzVertBlocked|layers(2), uint8(0), uint8(63), uint8(63), uint16(50), uint16(200), uint16(0), uint16(0), uint32(0))
	f.Add(uint64(22), uint16(127), uint16(127), uint16(0), uint16(0), fzIrr97|fzColor|fzMCT|fzVertBlocked|layers(1), uint8(0), uint8(63), uint8(63), uint16(200), uint16(0), uint16(0), uint16(0), uint32(0))
	for _, style := range []uint32{fzBypass, fzTermAll, fzResetCtx, fzCausal, fzBypass | fzTermAll, fzBypass | fzTermAll | fzResetCtx | fzCausal, fzSOP | fzEPH | fzSegSym} {
		f.Add(uint64(99), uint16(229), uint16(189), uint16(64), uint16(96), fzIrr97|style|layers(2), uint8(0), uint8(63), uint8(63), uint16(50), uint16(200), uint16(0), uint16(0), uint32(0))
	}
	// 1xN, Nx1, prime sides, a tile larger than the image, a 12-bit image, a
	// starving budget next to a non-binding one.
	f.Add(uint64(1), uint16(0), uint16(96), uint16(0), uint16(0), fzIrr97|layers(1), uint8(2), uint8(3), uint8(63), uint16(300), uint16(0), uint16(0), uint16(0), uint32(0))
	f.Add(uint64(2), uint16(130), uint16(0), uint16(0), uint16(0), uint32(0), uint8(1), uint8(63), uint8(3), uint16(0), uint16(0), uint16(0), uint16(0), uint32(0))
	f.Add(uint64(3), uint16(96), uint16(100), uint16(250), uint16(250), fzIrr97|3<<fzDepthShift|layers(3), uint8(4), uint8(15), uint8(31), uint16(1), uint16(40), uint16(3999), uint16(0), uint32(0))
	// Code-block sides COD cannot carry: refused, not signalled as another.
	f.Add(uint64(99), uint16(127), uint16(127), uint16(0), uint16(0), uint32(0), uint8(0), uint8(47), uint8(47), uint16(0), uint16(0), uint16(0), uint16(0), uint32(0))
	f.Add(uint64(99), uint16(127), uint16(127), uint16(0), uint16(0), fzIrr97|layers(1), uint8(0), uint8(63), uint8(19), uint16(100), uint16(0), uint16(0), uint16(0), uint32(0))

	f.Fuzz(func(t *testing.T, seed uint64, w16, h16, tw16, th16 uint16, flags uint32, levels, cbw, cbh uint8, b0, b1, b2, b3 uint16, roi uint32) {
		w, h := 1+int(w16)%256, 1+int(h16)%256
		o := Options{Kernel: dwt.Rev53, Levels: int(levels) % 7, CBW: 1 + int(cbw)%80, CBH: 1 + int(cbh)%80}
		if flags&fzIrr97 != 0 {
			o.Kernel = dwt.Irr97
		}
		if tw16 != 0 && th16 != 0 {
			// Any tile size, but at most 64 tiles: the grid, not the tile
			// count, is what the fuzzer should explore.
			o.TileW, o.TileH = max(1+int(tw16)%300, (w+7)/8), max(1+int(th16)%300, (h+7)/8)
		}
		ncomp := 1
		if flags&fzColor != 0 {
			ncomp = 3
			o.MCT = flags&fzMCT != 0
		}
		o.BitDepth = [4]int{8, 4, 10, 12}[flags>>fzDepthShift&3]
		o.Coder = CoderOptions{Bypass: flags&fzBypass != 0, TermAll: flags&fzTermAll != 0, ResetCtx: flags&fzResetCtx != 0, Causal: flags&fzCausal != 0}
		o.Resilience = ResilienceOptions{SOP: flags&fzSOP != 0, EPH: flags&fzEPH != 0, SegSymbols: flags&fzSegSym != 0}
		if flags&fzVertBlocked != 0 {
			o.VertMode = dwt.VertBlocked
		}
		for _, b := range []uint16{b0, b1, b2, b3}[:flags>>fzLayerShift&7%5] {
			o.LayerBPP = append(o.LayerBPP, 0.005+float64(b%4000)/200)
		}
		sort.Float64s(o.LayerBPP)
		if flags&fzROI != 0 {
			x0, y0 := int(roi&0xff)%w, int(roi>>8&0xff)%h
			o.ROI = &ROIRect{X0: x0, Y0: y0, X1: min(w, x0+1+int(roi>>16&0xff)), Y1: min(h, y0+1+int(roi>>24&0xff))}
		}
		pl := fuzzImage(w, h, ncomp, o.BitDepth, seed)

		o.Workers = 1
		if err := fuzzParams(w, h, ncomp, o).CheckGeometry(); err != nil {
			if cs, _, encErr := EncodePlanar(pl, o); encErr == nil || cs != nil {
				t.Fatalf("%+v: encoded %d bytes of what CheckGeometry refuses (%v)", o, len(cs), err)
			}
			return
		}
		// Accepted: encodeWithLambda fails the run on any encode error.
		want, _ := encodeWithLambda(t, pl, o, nil)
		if full, _ := encodeWithLambda(t, pl, o, forceFull); !bytes.Equal(full, want) {
			t.Fatalf("%+v: stopped encode differs from full coding", o)
		}
		enc := NewEncoder()
		defer enc.Close()
		for _, workers := range []int{2, 3, 8, 1} {
			o.Workers = workers
			cs, _, err := enc.EncodePlanar(pl, o)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cs, want) {
				t.Fatalf("%+v: reused encoder at workers=%d differs from a fresh one at workers=1", o, workers)
			}
		}

		// Fenced: MAXSHIFT caps the ROI up-shift at the int32 headroom (roi.go),
		// so wherever the background has more than 15 bit-planes — the 9/7 path
		// at its default step, 5/3 above 10 bits — background coefficients
		// above 2^s decode as ROI and reconstruction quality is not defined.
		// The byte-identity checks above still hold there.
		if o.ROI != nil && (o.Kernel == dwt.Irr97 || o.BitDepth > 10) {
			return
		}
		nl := max(len(o.LayerBPP), 1)
		prev := math.Inf(-1)
		for l := 1; l <= nl; l++ {
			out, err := DecodePlanarSource(t2.BytesSource(want), DecodeOptions{MaxLayers: l, Workers: 2})
			if err != nil {
				t.Fatalf("%+v: decode of %d layers: %v", o, l, err)
			}
			p := planarPSNR(pl, out, o.BitDepth)
			// Adding a layer adds coding passes PCRD chose for their estimated
			// gain; the measured gain can be a hair negative (refinement
			// midpoints, 9/7 rounding), never more.
			if p < prev-0.25 {
				t.Fatalf("%+v: PSNR fell from %.3f to %.3f dB at layer %d", o, prev, p, l)
			}
			prev = p
		}
		if len(o.LayerBPP) == 0 {
			if o.Kernel == dwt.Rev53 && !math.IsInf(prev, 1) {
				t.Fatalf("%+v: 5/3 without budgets is not the identity (PSNR %.2f dB)", o, prev)
			}
			if o.Kernel == dwt.Irr97 && prev < 45 {
				t.Fatalf("%+v: 9/7 without budgets reaches only %.2f dB", o, prev)
			}
		}
	})
}
