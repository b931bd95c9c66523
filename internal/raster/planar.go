package raster

import "fmt"

// Planar is a multi-component raster: one Image per component, all with equal
// visible dimensions (component interleaving is a transport concern; the
// codec works on planes). A single-component Planar wraps a grayscale image;
// three components are an RGB (or post-MCT YCbCr) triplet.
type Planar struct {
	Comps []*Image
}

// NewPlanar allocates ncomp components of width x height samples in four
// blocks, whatever the component count: the Planar, its component list, the
// component headers and one sample block, each component a cap-limited
// sub-slice of it (so an append to one never runs into the next).
func NewPlanar(width, height, ncomp int) *Planar {
	if ncomp <= 0 {
		panic(fmt.Sprintf("raster: invalid component count %d", ncomp))
	}
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("raster: invalid dimensions %dx%d", width, height))
	}
	p := &Planar{Comps: make([]*Image, ncomp)}
	hdrs := make([]Image, ncomp)
	n := width * height
	pix := make([]int32, n*ncomp)
	for i := range hdrs {
		hdrs[i] = Image{Width: width, Height: height, Stride: width, Pix: pix[i*n : (i+1)*n : (i+1)*n]}
		p.Comps[i] = &hdrs[i]
	}
	return p
}

// Gray wraps a single image as a one-component Planar (sharing storage).
func Gray(im *Image) *Planar { return &Planar{Comps: []*Image{im}} }

// RGB wraps three equally sized planes as a Planar (sharing storage).
func RGB(r, g, b *Image) *Planar { return &Planar{Comps: []*Image{r, g, b}} }

// NComp returns the component count.
func (p *Planar) NComp() int { return len(p.Comps) }

// Width returns the component width (all components agree).
func (p *Planar) Width() int { return p.Comps[0].Width }

// Height returns the component height (all components agree).
func (p *Planar) Height() int { return p.Comps[0].Height }

// Validate checks that the Planar has at least one component and that every
// component has identical visible dimensions.
func (p *Planar) Validate() error {
	if len(p.Comps) == 0 {
		return fmt.Errorf("raster: planar image with no components")
	}
	w, h := p.Comps[0].Width, p.Comps[0].Height
	for i, c := range p.Comps {
		if c == nil {
			return fmt.Errorf("raster: component %d is nil", i)
		}
		if c.Width != w || c.Height != h {
			return fmt.Errorf("raster: component %d is %dx%d, component 0 is %dx%d",
				i, c.Width, c.Height, w, h)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (p *Planar) Clone() *Planar {
	out := &Planar{Comps: make([]*Image, len(p.Comps))}
	for i, c := range p.Comps {
		out.Comps[i] = c.Clone()
	}
	return out
}

// ClampTo8 clamps every component's samples into [0, 255].
func (p *Planar) ClampTo8() {
	for _, c := range p.Comps {
		c.ClampTo8()
	}
}

// PlanarEqual reports whether a and b have the same component count and every
// pair of components holds identical samples.
func PlanarEqual(a, b *Planar) bool {
	if len(a.Comps) != len(b.Comps) {
		return false
	}
	for i := range a.Comps {
		if !Equal(a.Comps[i], b.Comps[i]) {
			return false
		}
	}
	return true
}
