package jp2k

import (
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// mixedShape is one image of the interleaved cycle a pooled codec is driven
// through: the batch benchmark's four shapes at test scale.
type mixedShape struct {
	name string
	pl   *raster.Planar
	opts Options
}

func mixedShapes() []mixedShape {
	const n = 128
	return []mixedShape{
		{"gray-5/3", raster.Gray(raster.Synthetic(n, n, 1)),
			Options{Kernel: dwt.Rev53, VertMode: dwt.VertBlocked}},
		{"tiled-9/7-2layers", raster.Gray(raster.Synthetic(n, n, 2)),
			Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 1.0}, TileW: n / 4, TileH: n / 4, VertMode: dwt.VertBlocked}},
		{"12bit-bypass-termall", raster.Gray(raster.SyntheticRadiograph(n, n, 3)),
			Options{Kernel: dwt.Rev53, BitDepth: 12, VertMode: dwt.VertBlocked, Coder: CoderOptions{Bypass: true, TermAll: true}}},
		{"colour-9/7-mct", colorPlanar(n/2, n/2),
			Options{Kernel: dwt.Irr97, MCT: true, LayerBPP: []float64{1.0}, VertMode: dwt.VertBlocked}},
	}
}

// TestDecoderMixedShapeAllocs: one pooled Decoder over an interleaved cycle
// of four shapes — plus the tiled stream's reduced-resolution and fewer-layer
// decodes — allocates per decode only its returned image, whatever shape the
// previous call had: measured 4.0 per decode (raster.NewPlanar's four
// blocks; the container scan is pooled too). Before pooled state reshaped in
// place, every shape change rebuilt the tier-2 state, grids and DWT level
// closures: about 358 allocations per decode at Workers 1; before the scan
// was pooled and the components' samples shared one block, 14.0.
func TestDecoderMixedShapeAllocs(t *testing.T) {
	type op struct {
		src  *t2.Source
		opts DecodeOptions
	}
	var ops []op
	for _, s := range mixedShapes() {
		cs, _, err := EncodePlanar(s.pl, s.opts)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		src := t2.BytesSource(cs)
		ops = append(ops, op{src, DecodeOptions{VertMode: dwt.VertBlocked}})
		if s.opts.TileW > 0 {
			ops = append(ops, op{src, DecodeOptions{VertMode: dwt.VertBlocked, DiscardLevels: 2}},
				op{src, DecodeOptions{VertMode: dwt.VertBlocked, MaxLayers: 1}})
		}
	}
	for _, workers := range []int{1, 2} {
		dec := NewDecoder()
		cycle := func() {
			for _, o := range ops {
				o.opts.Workers = workers
				if _, err := dec.DecodePlanarSource(o.src, o.opts); err != nil {
					t.Fatal(err)
				}
			}
		}
		cycle() // size every pooled buffer to the largest shape
		perOp := testing.AllocsPerRun(5, cycle) / float64(len(ops))
		dec.Close()
		t.Logf("workers %d: %.1f allocations per decode over %d interleaved decodes", workers, perOp, len(ops))
		if perOp > mixedDecodeCap {
			t.Errorf("workers %d: %.1f allocations per decode, cap %d", workers, perOp, mixedDecodeCap)
		}
	}
}

// TestEncoderMixedShapeAllocs: one pooled Encoder over the same interleaved
// cycle allocates per encode only its returned codestream, stats and the
// allocator's fresh layer tables, whatever shape the previous call had.
// Before, about 446 per encode at Workers 1.
func TestEncoderMixedShapeAllocs(t *testing.T) {
	shapes := mixedShapes()
	for _, workers := range []int{1, 2} {
		enc := NewEncoder()
		cycle := func() {
			for _, s := range shapes {
				o := s.opts
				o.Workers = workers
				if _, _, err := enc.EncodePlanar(s.pl, o); err != nil {
					t.Fatal(err)
				}
			}
		}
		cycle()
		perOp := testing.AllocsPerRun(5, cycle) / float64(len(shapes))
		enc.Close()
		t.Logf("workers %d: %.1f allocations per encode over %d interleaved encodes", workers, perOp, len(shapes))
		if perOp > mixedEncodeCap {
			t.Errorf("workers %d: %.1f allocations per encode, cap %d", workers, perOp, mixedEncodeCap)
		}
	}
}

const (
	mixedDecodeCap = 5 // measured 4.0; one allocation of margin
	mixedEncodeCap = 24
)
