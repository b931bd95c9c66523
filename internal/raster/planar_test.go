package raster

import (
	"bytes"
	"testing"
)

func testPlanar(w, h int) *Planar {
	pl := NewPlanar(w, h, 3)
	for ci, c := range pl.Comps {
		for y := 0; y < h; y++ {
			row := c.Row(y)
			for x := range row {
				row[x] = int32((x*3 + y*5 + ci*7) % 256)
			}
		}
	}
	return pl
}

func TestPPMRoundTrip(t *testing.T) {
	pl := testPlanar(33, 21)
	var buf bytes.Buffer
	if err := WritePPM(&buf, pl, 255); err != nil {
		t.Fatal(err)
	}
	back, maxval, err := ReadPNM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if maxval != 255 || !PlanarEqual(pl, back) {
		t.Fatal("8-bit PPM round trip failed")
	}
}

func TestPPMRoundTrip16(t *testing.T) {
	pl := NewPlanar(17, 9, 3)
	for ci, c := range pl.Comps {
		for i := range c.Pix {
			c.Pix[i] = int32((i*331 + ci*1000) % 4096)
		}
	}
	var buf bytes.Buffer
	if err := WritePPM(&buf, pl, 4095); err != nil {
		t.Fatal(err)
	}
	back, maxval, err := ReadPNM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if maxval != 4095 || !PlanarEqual(pl, back) {
		t.Fatal("16-bit PPM round trip failed")
	}
}

func TestReadPNMDispatch(t *testing.T) {
	im := New(5, 4)
	for i := range im.Pix {
		im.Pix[i] = int32(i * 10)
	}
	var pgm bytes.Buffer
	if err := WritePGM(&pgm, im, 255); err != nil {
		t.Fatal(err)
	}
	pl, _, err := ReadPNM(&pgm)
	if err != nil {
		t.Fatal(err)
	}
	if pl.NComp() != 1 || !Equal(pl.Comps[0], im) {
		t.Fatal("P5 dispatch failed")
	}
	var ppm bytes.Buffer
	if err := WritePPM(&ppm, testPlanar(5, 4), 255); err != nil {
		t.Fatal(err)
	}
	if pl, _, err = ReadPNM(&ppm); err != nil || pl.NComp() != 3 {
		t.Fatalf("P6 dispatch failed: %v", err)
	}
}

func TestPlanarValidate(t *testing.T) {
	if err := (&Planar{}).Validate(); err == nil {
		t.Error("empty planar accepted")
	}
	if err := (&Planar{Comps: []*Image{New(4, 4), New(5, 4)}}).Validate(); err == nil {
		t.Error("mismatched component sizes accepted")
	}
	if err := RGB(New(4, 4), New(4, 4), New(4, 4)).Validate(); err != nil {
		t.Errorf("valid planar rejected: %v", err)
	}
	if !PlanarEqual(Gray(New(3, 3)), Gray(New(3, 3))) {
		t.Error("equal grays unequal")
	}
	if PlanarEqual(Gray(New(3, 3)), testPlanar(3, 3)) {
		t.Error("different component counts compare equal")
	}
}

func TestPlanarClone(t *testing.T) {
	pl := testPlanar(8, 6)
	cl := pl.Clone()
	cl.Comps[1].Set(0, 0, 999)
	if pl.Comps[1].At(0, 0) == 999 {
		t.Fatal("clone shares storage")
	}
	cl.Comps[1].Set(0, 0, pl.Comps[1].At(0, 0))
	if !PlanarEqual(pl, cl) {
		t.Fatal("clone differs")
	}
}

// TestNewPlanarAllocs: a Planar of any component count is four allocations —
// the Planar, its component list, its headers and one sample block — and
// every component is a cap-limited window of that block.
func TestNewPlanarAllocs(t *testing.T) {
	for _, nc := range []int{1, 3, 4} {
		if n := testing.AllocsPerRun(100, func() { NewPlanar(37, 11, nc) }); n != 4 {
			t.Errorf("%d components: %.0f allocations, want 4", nc, n)
		}
		p := NewPlanar(37, 11, nc)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		for i, c := range p.Comps {
			if c.Width != 37 || c.Height != 11 || c.Stride != 37 || len(c.Pix) != 37*11 || cap(c.Pix) != 37*11 {
				t.Fatalf("%d components: component %d is %dx%d stride %d len %d cap %d",
					nc, i, c.Width, c.Height, c.Stride, len(c.Pix), cap(c.Pix))
			}
			for j := range c.Pix {
				c.Pix[j] = int32(i + 1)
			}
		}
		for i, c := range p.Comps {
			for _, v := range c.Pix {
				if v != int32(i+1) {
					t.Fatalf("%d components: component %d overlaps another", nc, i)
				}
			}
		}
	}
}

// TestPlanarReshape: Reshape gives NewPlanar's layout for any shape — every
// component its own cap-limited window of one sample block — reusing its
// storage when the new shape fits (no allocation), and never writes into an
// Image it did not make.
func TestPlanarReshape(t *testing.T) {
	p := NewPlanar(40, 30, 3)
	for _, s := range []struct{ w, h, nc int }{{17, 9, 1}, {40, 30, 3}, {12, 50, 2}, {3, 3, 4}, {60, 41, 3}, {5, 7, 1}} {
		p.Reshape(s.w, s.h, s.nc)
		if p.NComp() != s.nc {
			t.Fatalf("%v: %d components", s, p.NComp())
		}
		for i, c := range p.Comps {
			if c.Width != s.w || c.Height != s.h || c.Stride != s.w || len(c.Pix) != s.w*s.h || cap(c.Pix) != s.w*s.h {
				t.Fatalf("%v: component %d is %dx%d stride %d len %d cap %d", s, i, c.Width, c.Height, c.Stride, len(c.Pix), cap(c.Pix))
			}
			for j := range c.Pix {
				c.Pix[j] = int32(i + 1)
			}
		}
		for i, c := range p.Comps {
			for _, v := range c.Pix {
				if v != int32(i+1) {
					t.Fatalf("%v: component %d overlaps another", s, i)
				}
			}
		}
	}
	// The largest shape so far fits: reshaping within it allocates nothing.
	if n := testing.AllocsPerRun(20, func() { p.Reshape(60, 41, 3); p.Reshape(11, 13, 4) }); n != 0 {
		t.Errorf("reshape within the storage allocates %.0f times", n)
	}
	im := New(8, 6)
	g := Gray(im)
	g.Reshape(8, 6, 1)
	for i := range g.Comps[0].Pix {
		g.Comps[0].Pix[i] = 7
	}
	if g.Comps[0] == im || im.Pix[0] != 0 || im.Width != 8 {
		t.Fatal("Reshape of a Gray planar wrote into the wrapped image")
	}
}
