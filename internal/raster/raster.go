// Package raster provides the image container used throughout the codec,
// deterministic synthetic test-image generators, and PGM/PPM I/O.
//
// Samples are stored as int32 in row-major order with an explicit stride so
// that sub-rectangles (tiles, subbands) can alias a parent image without
// copying. The codec works on signed samples; unsigned input is level-shifted
// by the pipeline, not by this package.
package raster

import "fmt"

// Image is a single-component raster of signed samples.
//
// The sample at (x, y) is Pix[y*Stride+x]. Width and Height describe the
// visible rectangle; Stride may exceed Width (e.g. for padded images used by
// the cache experiments).
type Image struct {
	Width  int
	Height int
	Stride int
	Pix    []int32
}

// New allocates a Width x Height image with Stride == Width.
func New(width, height int) *Image {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("raster: invalid dimensions %dx%d", width, height))
	}
	return &Image{
		Width:  width,
		Height: height,
		Stride: width,
		Pix:    make([]int32, width*height),
	}
}

// At returns the sample at (x, y). It does not bounds-check beyond the slice.
func (im *Image) At(x, y int) int32 { return im.Pix[y*im.Stride+x] }

// Set stores v at (x, y).
func (im *Image) Set(x, y int, v int32) { im.Pix[y*im.Stride+x] = v }

// Row returns the x-th row as a slice aliasing the image.
func (im *Image) Row(y int) []int32 { return im.Pix[y*im.Stride : y*im.Stride+im.Width] }

// SubImage returns a view of the rectangle (x0,y0)-(x1,y1) (exclusive) that
// shares storage with im. Mutating the view mutates im.
func (im *Image) SubImage(x0, y0, x1, y1 int) (*Image, error) {
	if x0 < 0 || y0 < 0 || x1 > im.Width || y1 > im.Height || x0 >= x1 || y0 >= y1 {
		return nil, fmt.Errorf("raster: invalid subimage (%d,%d)-(%d,%d) of %dx%d", x0, y0, x1, y1, im.Width, im.Height)
	}
	return &Image{
		Width:  x1 - x0,
		Height: y1 - y0,
		Stride: im.Stride,
		Pix:    im.Pix[y0*im.Stride+x0 : (y1-1)*im.Stride+x1],
	}, nil
}

// Clone returns a deep copy with Stride == Width (padding dropped).
func (im *Image) Clone() *Image {
	out := New(im.Width, im.Height)
	for y := 0; y < im.Height; y++ {
		copy(out.Row(y), im.Row(y))
	}
	return out
}

// Equal reports whether the visible rectangles of a and b hold identical
// samples.
func Equal(a, b *Image) bool {
	if a.Width != b.Width || a.Height != b.Height {
		return false
	}
	for y := 0; y < a.Height; y++ {
		ra, rb := a.Row(y), b.Row(y)
		for x := range ra {
			if ra[x] != rb[x] {
				return false
			}
		}
	}
	return true
}

// ClampTo8 clamps all samples into [0, 255]; used after lossy decoding.
func (im *Image) ClampTo8() {
	for y := 0; y < im.Height; y++ {
		r := im.Row(y)
		for x, v := range r {
			if v < 0 {
				r[x] = 0
			} else if v > 255 {
				r[x] = 255
			}
		}
	}
}
