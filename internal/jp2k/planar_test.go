package jp2k

import (
	"bytes"
	"strings"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

func colorPlanar(w, h int) *raster.Planar {
	r, g, b := rgbPlanes(w, h)
	return raster.RGB(r, g, b)
}

// colorCases cover both kernels, single- and multi-tile layouts, layered rate
// control and ROI over the native Csiz=3 path.
func colorCases() []Options {
	return []Options{
		{Kernel: dwt.Rev53, MCT: true},
		{Kernel: dwt.Rev53, MCT: true, TileW: 64, TileH: 48, CBW: 32, CBH: 16, Levels: 3},
		{Kernel: dwt.Irr97, MCT: true, LayerBPP: []float64{1.5}},
		{Kernel: dwt.Irr97, MCT: true, LayerBPP: []float64{0.5, 2.0}, TileW: 60, TileH: 50},
		{Kernel: dwt.Rev53, MCT: true, ROI: &ROIRect{X0: 20, Y0: 20, X1: 70, Y1: 60}},
	}
}

// TestColorDeterministicAcrossWorkers is the multi-component analogue of
// TestEncodeDeterministicAcrossWorkers: the Csiz=3 codestream and its decode
// must be bit-identical for Workers in {1, 2, 4, 8} — the component x tile
// task grid must never influence coded output or decoded samples.
func TestColorDeterministicAcrossWorkers(t *testing.T) {
	pl := colorPlanar(96, 80)
	for ci, base := range colorCases() {
		var wantCS []byte
		var wantPl *raster.Planar
		for _, w := range []int{1, 2, 4, 8} {
			o := base
			o.Workers = w
			cs, _, err := EncodePlanar(pl, o)
			if err != nil {
				t.Fatalf("case %d workers %d: %v", ci, w, err)
			}
			back, err := DecodePlanarSource(t2.BytesSource(cs), DecodeOptions{Workers: w})
			if err != nil {
				t.Fatalf("case %d workers %d: decode: %v", ci, w, err)
			}
			if wantCS == nil {
				wantCS, wantPl = cs, back
				continue
			}
			if !bytes.Equal(cs, wantCS) {
				t.Errorf("case %d: workers=%d codestream differs from workers=1", ci, w)
			}
			if !raster.PlanarEqual(back, wantPl) {
				t.Errorf("case %d: workers=%d decode differs from workers=1", ci, w)
			}
		}
	}
}

// TestColorPooledReuseDeterministic interleaves color and grayscale images
// through one pooled Encoder and one pooled Decoder across rounds and worker
// counts: pooled state must not leak between calls or between component
// counts.
func TestColorPooledReuseDeterministic(t *testing.T) {
	gray := raster.Synthetic(96, 80, 7)
	color := colorPlanar(96, 80)
	type job struct {
		pl   *raster.Planar
		opts Options
	}
	jobs := []job{
		{raster.Gray(gray), Options{Kernel: dwt.Rev53}},
		{color, Options{Kernel: dwt.Rev53, MCT: true}},
		{color, Options{Kernel: dwt.Irr97, MCT: true, LayerBPP: []float64{1.5}, TileW: 60, TileH: 50}},
		{raster.Gray(gray), Options{Kernel: dwt.Irr97, LayerBPP: []float64{1.0}}},
	}
	wantCS := make([][]byte, len(jobs))
	wantPl := make([]*raster.Planar, len(jobs))
	for i, j := range jobs {
		o := j.opts
		o.Workers = 2
		cs, _, err := EncodePlanar(j.pl, o)
		if err != nil {
			t.Fatalf("reference job %d: %v", i, err)
		}
		wantCS[i] = cs
		if wantPl[i], err = DecodePlanarSource(t2.BytesSource(cs), DecodeOptions{Workers: 2}); err != nil {
			t.Fatalf("reference job %d: decode: %v", i, err)
		}
	}
	enc := NewEncoder()
	defer enc.Close()
	dec := NewDecoder()
	defer dec.Close()
	for round := 0; round < 3; round++ {
		for i, j := range jobs {
			o := j.opts
			o.Workers = 1 + (round+i)%4
			cs, _, err := enc.EncodePlanar(j.pl, o)
			if err != nil {
				t.Fatalf("round %d job %d: %v", round, i, err)
			}
			if !bytes.Equal(cs, wantCS[i]) {
				t.Errorf("round %d job %d (workers=%d): reused encoder output differs from one-shot", round, i, o.Workers)
			}
			back, err := dec.DecodePlanarSource(t2.BytesSource(cs), DecodeOptions{Workers: 1 + (round+i+1)%4})
			if err != nil {
				t.Fatalf("round %d job %d: decode: %v", round, i, err)
			}
			if !raster.PlanarEqual(back, wantPl[i]) {
				t.Errorf("round %d job %d: reused decoder output differs from one-shot", round, i)
			}
		}
	}
}

// TestDecodeRegionPlanarMatchesCrop extends the windowed-decode gate to
// 3-component streams: for every (reduce, layers) combination and Workers in
// {1, 2, 4, 8}, a region decode must be bit-identical to cropping a full
// decode — including through the inverse inter-component transform.
func TestDecodeRegionPlanarMatchesCrop(t *testing.T) {
	pl := colorPlanar(230, 190)
	dec := NewDecoder()
	defer dec.Close()
	for ci, o := range []Options{
		{Kernel: dwt.Rev53, MCT: true, TileW: 64, TileH: 96, Levels: 3},
		{Kernel: dwt.Irr97, MCT: true, LayerBPP: []float64{0.75, 3.0}, TileW: 100, TileH: 90},
	} {
		o.Workers = 2
		cs, _, err := EncodePlanar(pl, o)
		if err != nil {
			t.Fatalf("case %d: encode: %v", ci, err)
		}
		for _, reduce := range []int{0, 1, 2} {
			for _, layers := range []int{0, 1} {
				opts := DecodeOptions{DiscardLevels: reduce, MaxLayers: layers}
				full, err := DecodePlanarSource(t2.BytesSource(cs), opts)
				if err != nil {
					t.Fatalf("case %d reduce %d: decode: %v", ci, reduce, err)
				}
				w, h := full.Width(), full.Height()
				regions := []Rect{
					{0, 0, w, h},
					{0, 0, min(17, w), min(13, h)},
					{w - 1, h - 1, w, h},
					{w / 3, h / 4, 2*w/3 + 1, 3*h/4 + 1},
					{-50, -50, w + 50, h + 50},
				}
				for _, workers := range []int{1, 2, 4, 8} {
					opts.Workers = workers
					for ri, r := range regions {
						got, err := dec.DecodeRegionPlanarSource(t2.BytesSource(cs), r, opts)
						if err != nil {
							t.Fatalf("case %d reduce %d layers %d workers %d region %d: %v",
								ci, reduce, layers, workers, ri, err)
						}
						rr := r.Intersect(Rect{X1: w, Y1: h})
						for compI := range full.Comps {
							want := crop(full.Comps[compI], rr)
							if !raster.Equal(got.Comps[compI], want) {
								t.Errorf("case %d reduce %d layers %d workers %d region %d comp %d: window differs from crop",
									ci, reduce, layers, workers, ri, compI)
							}
						}
					}
				}
			}
		}
	}
}

// TestColorROILosslessRoundTrip: MAXSHIFT applies uniformly across the
// component x tile grid (one RGN marker per component), and the reversible
// path stays exactly reversible through it.
func TestColorROILosslessRoundTrip(t *testing.T) {
	pl := colorPlanar(128, 96)
	cs, _, err := EncodePlanar(pl, Options{
		Kernel: dwt.Rev53, MCT: true, TileW: 64, TileH: 64,
		ROI: &ROIRect{X0: 40, Y0: 30, X1: 100, Y1: 80}, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePlanarSource(t2.BytesSource(cs), DecodeOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !raster.PlanarEqual(pl, back) {
		t.Fatal("color ROI lossless round trip failed")
	}
}

// TestPlanarNonMCTComponents exercises the generic Csiz=N path without the
// color transform: two and four independent components round-trip losslessly.
func TestPlanarNonMCTComponents(t *testing.T) {
	for _, ncomp := range []int{2, 4} {
		pl := &raster.Planar{}
		for i := 0; i < ncomp; i++ {
			pl.Comps = append(pl.Comps, raster.Synthetic(70, 50, uint64(31+i)))
		}
		cs, _, err := EncodePlanar(pl, Options{Kernel: dwt.Rev53, Workers: 2})
		if err != nil {
			t.Fatalf("ncomp=%d: %v", ncomp, err)
		}
		p, _, err := t2.ScanCodestream(t2.BytesSource(cs))
		if err != nil {
			t.Fatal(err)
		}
		if p.NComp != ncomp || p.MCT {
			t.Fatalf("ncomp=%d: header says NComp=%d MCT=%v", ncomp, p.NComp, p.MCT)
		}
		back, err := DecodePlanarSource(t2.BytesSource(cs), DecodeOptions{Workers: 3})
		if err != nil {
			t.Fatalf("ncomp=%d: decode: %v", ncomp, err)
		}
		if !raster.PlanarEqual(pl, back) {
			t.Fatalf("ncomp=%d: lossless round trip failed", ncomp)
		}
	}
}

// TestPlanarErrors covers the argument contract of the multi-component API.
func TestPlanarErrors(t *testing.T) {
	a := raster.Synthetic(32, 32, 1)
	b := raster.Synthetic(16, 16, 2)
	if _, _, err := EncodePlanar(raster.RGB(a, a.Clone(), b), Options{}); err == nil {
		t.Error("want error for mismatched component sizes")
	}
	if _, _, err := EncodePlanar(&raster.Planar{Comps: []*raster.Image{a, a}}, Options{MCT: true}); err == nil {
		t.Error("want error for MCT with 2 components")
	}
	if _, _, err := EncodePlanar(&raster.Planar{}, Options{}); err == nil {
		t.Error("want error for zero components")
	}
	cs, _, err := EncodePlanar(raster.RGB(a, a.Clone(), a.Clone()), Options{Kernel: dwt.Rev53, MCT: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(cs, DecodeOptions{}); err == nil {
		t.Error("single-component Decode accepted a Csiz=3 stream")
	}
	// The retired PJ2C three-codestream container is not recognized: it
	// fails like any other non-codestream.
	pj2c := append([]byte("PJ2C"), make([]byte, 12)...)
	if _, err := DecodePlanarSource(t2.BytesSource(pj2c), DecodeOptions{}); err == nil || !strings.Contains(err.Error(), "missing SOC") {
		t.Errorf("DecodePlanarSource of a PJ2C container: err %v, want missing SOC", err)
	}
}

// TestColorSteadyStateAllocs enforces the multi-component alloc budget: a
// warm pooled color encode/decode must stay within 2x of 3x the
// single-component steady state (three planes' worth of work, with bounded
// bookkeeping on top).
func TestColorSteadyStateAllocs(t *testing.T) {
	gray := raster.Synthetic(128, 96, 3)
	gcs, _, err := Encode(gray, Options{Kernel: dwt.Irr97, LayerBPP: []float64{1.0}})
	if err != nil {
		t.Fatal(err)
	}
	pl := colorPlanar(128, 96)
	copts := Options{Kernel: dwt.Irr97, MCT: true, LayerBPP: []float64{1.0}, Workers: 1}
	ccs, _, err := EncodePlanar(pl, copts)
	if err != nil {
		t.Fatal(err)
	}

	genc, cenc := NewEncoder(), NewEncoder()
	defer genc.Close()
	defer cenc.Close()
	gdec, cdec := NewDecoder(), NewDecoder()
	defer gdec.Close()
	defer cdec.Close()
	gopts := Options{Kernel: dwt.Irr97, LayerBPP: []float64{1.0}, Workers: 1}
	dopts := DecodeOptions{Workers: 1}
	csrc := t2.BytesSource(ccs)
	for i := 0; i < 3; i++ { // warm the pools
		if _, _, err := genc.Encode(gray, gopts); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cenc.EncodePlanar(pl, copts); err != nil {
			t.Fatal(err)
		}
		if _, err := gdec.Decode(gcs, dopts); err != nil {
			t.Fatal(err)
		}
		if _, err := cdec.DecodePlanarSource(csrc, dopts); err != nil {
			t.Fatal(err)
		}
	}
	grayEnc := testing.AllocsPerRun(10, func() { genc.Encode(gray, gopts) })
	colorEnc := testing.AllocsPerRun(10, func() { cenc.EncodePlanar(pl, copts) })
	grayDec := testing.AllocsPerRun(10, func() { gdec.Decode(gcs, dopts) })
	colorDec := testing.AllocsPerRun(10, func() { cdec.DecodePlanarSource(csrc, dopts) })
	t.Logf("steady-state allocs/op: encode gray %.0f color %.0f; decode gray %.0f color %.0f",
		grayEnc, colorEnc, grayDec, colorDec)
	if colorEnc > 6*grayEnc {
		t.Errorf("pooled color encode allocates %.0f/op, over 6x the gray baseline %.0f", colorEnc, grayEnc)
	}
	if colorDec > 6*grayDec {
		t.Errorf("pooled color decode allocates %.0f/op, over 6x the gray baseline %.0f", colorDec, grayDec)
	}
}
