package raster

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// naivePNM is the per-sample reference the packed writers must match byte
// for byte: header, then every sample clamped into [0, maxval] and emitted
// interleaved, one byte at a time.
func naivePNM(comps []*Image, maxval int) []byte {
	magic := "P5"
	if len(comps) == 3 {
		magic = "P6"
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "%s\n%d %d\n%d\n", magic, comps[0].Width, comps[0].Height, maxval)
	for y := 0; y < comps[0].Height; y++ {
		for x := 0; x < comps[0].Width; x++ {
			for _, c := range comps {
				v := c.At(x, y)
				if v < 0 {
					v = 0
				} else if v > int32(maxval) {
					v = int32(maxval)
				}
				if maxval > 255 {
					out.WriteByte(byte(v >> 8))
				}
				out.WriteByte(byte(v))
			}
		}
	}
	return out.Bytes()
}

// noisyPadded fills a padded-stride image with seeded samples that straddle
// both clamp edges (negatives and values above maxval), padding included.
func noisyPadded(rng *rand.Rand, w, h, stride, maxval int) *Image {
	im := NewPadded(w, h, stride)
	for i := range im.Pix {
		im.Pix[i] = int32(rng.Intn(2*maxval)) - int32(maxval/2)
	}
	return im
}

// TestPNMWritersMatchNaive pins WritePGM/WritePPM to the naive reference at
// both sample widths, with Stride > Width, out-of-range samples on both
// sides, and heights that cross the writers' chunk boundary.
func TestPNMWritersMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, maxval := range []int{255, 4095} {
		for _, dim := range [][2]int{{1, 1}, {37, 23}, {700, 130}} {
			w, h := dim[0], dim[1]
			comps := make([]*Image, 3)
			for c := range comps {
				comps[c] = noisyPadded(rng, w, h, w+5, maxval)
			}
			var got bytes.Buffer
			if err := WritePGM(&got, comps[0], maxval); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), naivePNM(comps[:1], maxval)) {
				t.Errorf("WritePGM %dx%d maxval %d differs from the per-sample reference", w, h, maxval)
			}
			got.Reset()
			if err := WritePPM(&got, &Planar{Comps: comps}, maxval); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), naivePNM(comps, maxval)) {
				t.Errorf("WritePPM %dx%d maxval %d differs from the per-sample reference", w, h, maxval)
			}
		}
	}
}

// failAfter fails the n-th Write.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n--; f.n < 0 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

func TestPNMWriteErrorSurfaces(t *testing.T) {
	im := Synthetic(512, 512, 3) // several chunks
	for n := 0; n < 3; n++ {
		if err := WritePGM(&failAfter{n: n}, im, 255); err != io.ErrClosedPipe {
			t.Errorf("write %d failing: err = %v, want io.ErrClosedPipe", n, err)
		}
	}
}

func BenchmarkWritePGM(b *testing.B) {
	im := Synthetic(1024, 768, 5)
	b.SetBytes(int64(im.Width * im.Height))
	b.ReportAllocs()
	for b.Loop() {
		if err := WritePGM(io.Discard, im, 255); err != nil {
			b.Fatal(err)
		}
	}
}
