package dwt

import (
	"pj2k/internal/raster"
)

// FPlane is a float64 sample plane used by the irreversible 9/7 path.
type FPlane struct {
	Width  int
	Height int
	Stride int
	Data   []float64
}

// NewFPlane allocates a dense float plane.
func NewFPlane(w, h int) *FPlane {
	return &FPlane{Width: w, Height: h, Stride: w, Data: make([]float64, w*h)}
}

// FromImage converts an integer image into a float plane (no level shift).
func FromImage(im *raster.Image) *FPlane {
	return FromImageReuse(nil, im)
}

// FromImageReuse is FromImage writing into p when its backing storage is
// large enough, so pooled callers avoid reallocating the plane every encode.
// A nil (or too small) p is replaced by a fresh plane; the used plane is
// returned either way.
func FromImageReuse(p *FPlane, im *raster.Image) *FPlane {
	if p == nil || cap(p.Data) < im.Width*im.Height {
		p = NewFPlane(im.Width, im.Height)
	} else {
		p.Width, p.Height, p.Stride = im.Width, im.Height, im.Width
		p.Data = p.Data[:im.Width*im.Height]
	}
	for y := 0; y < im.Height; y++ {
		row := im.Row(y)
		out := p.Data[y*p.Stride : y*p.Stride+p.Width]
		for x, v := range row {
			out[x] = float64(v)
		}
	}
	return p
}

// plane views p as a transform plane.
func (p *FPlane) plane() plane[float64] {
	return plane[float64]{p.Data, p.Width, p.Height, p.Stride}
}

// Forward97 applies `levels` levels of the irreversible 9/7 transform in
// place, producing the Mallat layout.
func Forward97(p *FPlane, levels int, st Strategy) {
	run(p.plane(), levels, st, &irr97, true, nil)
}

// Inverse97 inverts Forward97.
func Inverse97(p *FPlane, levels int, st Strategy) {
	run(p.plane(), levels, st, &irr97, false, nil)
}
