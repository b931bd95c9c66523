package jp2k

import (
	"fmt"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/faultinject"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// poisonPlanes overwrites every pooled (tile, component) coefficient plane of
// d, to its full capacity, with values no decode leaves there, and returns how
// many planes it poisoned.
func poisonPlanes(d *Decoder) int {
	n := 0
	for _, te := range d.tiles {
		for ci := range te.comps {
			cd := &te.comps[ci]
			if cd.plane != nil {
				pix := cd.plane.Pix[:cap(cd.plane.Pix)]
				for i := range pix {
					pix[i] = 1<<28 + int32(i)
				}
				n++
			}
			if cd.fplane != nil {
				data := cd.fplane.Data[:cap(cd.fplane.Data)]
				for i := range data {
					data[i] = 1e9 + float64(i)
				}
				n++
			}
		}
	}
	return n
}

// concealedStream returns a segmentation-symbol stream with bit flips in one
// tile body that tier-1 concealment absorbs: at least one block is concealed.
func concealedStream(t *testing.T) []byte {
	t.Helper()
	cs, _, err := Encode(raster.Synthetic(96, 96, 5), Options{
		Kernel: dwt.Irr97, TileW: 48, TileH: 48, LayerBPP: []float64{1.0},
		Resilience: ResilienceOptions{SOP: true, EPH: true, SegSymbols: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := faultinject.TileBodies(cs)
	dec := NewDecoder()
	defer dec.Close()
	for seed := uint64(1); seed <= 64; seed++ {
		bad := faultinject.BitFlip(cs, spans[3], 4, seed)
		if _, err := dec.Decode(bad, DecodeOptions{Resilient: true}); err == nil &&
			dec.Damage().Totals().BlocksConcealed > 0 {
			return bad
		}
	}
	t.Fatal("no bit-flip seed produced a concealed block")
	return nil
}

// TestPoisonedPooledPlanes pins the invariant that lets the decoder skip
// clearing its pooled coefficient planes: tier-1 writes every sample of every
// kept band, concealed and empty blocks included, so whatever a plane held
// before cannot reach the output. Between decodes every pooled plane is
// poisoned; each decode must still equal a fresh Decoder's.
func TestPoisonedPooledPlanes(t *testing.T) {
	enc := func(pl *raster.Planar, o Options) []byte {
		cs, _, err := EncodePlanar(pl, o)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	gray := raster.Gray(raster.Synthetic(128, 96, 3))
	roi := &ROIRect{X0: 20, Y0: 16, X1: 70, Y1: 60}
	layered := enc(gray, Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 1.0}, TileW: 64, TileH: 48})
	cases := []struct {
		name string
		cs   []byte
		opts DecodeOptions
	}{
		{"5/3", enc(gray, Options{Kernel: dwt.Rev53}), DecodeOptions{}},
		{"9/7 tiled", layered, DecodeOptions{}},
		{"5/3 ROI", enc(gray, Options{Kernel: dwt.Rev53, LayerBPP: []float64{0.5}, ROI: roi}), DecodeOptions{}},
		{"9/7 ROI", enc(gray, Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.5}, ROI: roi}), DecodeOptions{}},
		{"DiscardLevels 2", layered, DecodeOptions{DiscardLevels: 2}},
		{"MaxLayers 1", layered, DecodeOptions{MaxLayers: 1}},
		{"colour 5/3", enc(colorPlanar(64, 48), Options{Kernel: dwt.Rev53, MCT: true, TileW: 32, TileH: 32}), DecodeOptions{}},
		{"resilient concealed", concealedStream(t), DecodeOptions{Resilient: true}},
	}
	for _, workers := range []int{1, 2} {
		dec := NewDecoder()
		// Prime the pool with every shape, so each case below runs on pooled
		// planes another stream left behind.
		for _, c := range cases {
			if _, err := dec.DecodePlanarSource(t2.BytesSource(c.cs), c.opts); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		for _, c := range cases {
			name := fmt.Sprintf("%s workers %d", c.name, workers)
			if poisonPlanes(dec) == 0 {
				t.Fatalf("%s: no pooled planes to poison", name)
			}
			c.opts.Workers = workers
			got, err := dec.DecodePlanarSource(t2.BytesSource(c.cs), c.opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fresh := NewDecoder()
			want, err := fresh.DecodePlanarSource(t2.BytesSource(c.cs), c.opts)
			if err != nil {
				t.Fatalf("%s: fresh decoder: %v", name, err)
			}
			if c.opts.Resilient && fresh.Damage().Totals().BlocksConcealed == 0 {
				t.Fatalf("%s: no block concealed", name)
			}
			fresh.Close()
			for ci, wc := range want.Comps {
				gc := got.Comps[ci]
				if gc.Width != wc.Width || gc.Height != wc.Height {
					t.Fatalf("%s: component %d is %dx%d, want %dx%d", name, ci, gc.Width, gc.Height, wc.Width, wc.Height)
				}
				for y := 0; y < wc.Height; y++ {
					for x, v := range wc.Row(y) {
						if g := gc.Row(y)[x]; g != v {
							t.Fatalf("%s: component %d (%d,%d) = %d, fresh decoder %d", name, ci, x, y, g, v)
						}
					}
				}
			}
		}
		dec.Close()
	}
}
