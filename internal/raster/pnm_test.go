package raster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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

// naivePack is PackSamples' per-sample reference: srcs interleaved sample by
// sample, each clamped into [0, maxval] and emitted one byte at a time.
func naivePack(maxval int, srcs ...[]int32) []byte {
	var out []byte
	for i := range srcs[0] {
		for _, src := range srcs {
			v := src[i]
			if v < 0 {
				v = 0
			} else if v > int32(maxval) {
				v = int32(maxval)
			}
			if maxval > 255 {
				out = append(out, byte(v>>8))
			}
			out = append(out, byte(v))
		}
	}
	return out
}

// checkPack runs PackSamples into dst at offset off, between sentinel bytes,
// and compares what it wrote with naivePack and the sentinels with their fill.
func checkPack(t *testing.T, off, maxval int, srcs ...[]int32) {
	t.Helper()
	want := naivePack(maxval, srcs...)
	dst := bytes.Repeat([]byte{0xA5}, off+len(want)+9)
	PackSamples(dst[off:], maxval, srcs...)
	if got := dst[off : off+len(want)]; !bytes.Equal(got, want) {
		t.Fatalf("%d source(s) of %d samples, maxval %d, offset %d:\n got %x\nwant %x", len(srcs), len(srcs[0]), maxval, off, got, want)
	}
	for i, c := range append(dst[:off:off], dst[off+len(want):]...) {
		if c != 0xA5 {
			t.Fatalf("%d source(s) of %d samples, maxval %d, offset %d: byte %d outside the packed span overwritten", len(srcs), len(srcs[0]), maxval, off, i)
		}
	}
}

// TestPackSamplesMatchNaive pins both 8-bit kernels and the 16-bit loop to the
// per-sample reference: every length 0-70 (the 8-wide and 4-pixel bodies and
// every tail), dst at unaligned offsets, samples below 0, above maxval and at
// the int32 extremes, one source and three.
func TestPackSamplesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, maxval := range []int{1, 100, 255, 256, 4095, 65535} {
		for _, nc := range []int{1, 3} {
			for n := 0; n <= 70; n++ {
				srcs := make([][]int32, nc)
				for c := range srcs {
					srcs[c] = make([]int32, n)
					for i := range srcs[c] {
						srcs[c][i] = int32(rng.Intn(2*maxval+4)) - int32(maxval/2) - 2
						if rng.Intn(16) == 0 {
							srcs[c][i] = []int32{math.MinInt32, math.MaxInt32}[rng.Intn(2)]
						}
					}
				}
				for off := range 8 {
					checkPack(t, off, maxval, srcs...)
				}
			}
		}
	}
}

// FuzzPackSamples: arbitrary samples (four little-endian bytes each), maxval,
// source count and dst offset, against the same reference.
func FuzzPackSamples(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x80, 0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4, 0xFF, 0, 0, 0}, uint16(254), false, uint8(1))
	f.Add(bytes.Repeat([]byte{0x10, 0xF0, 0, 0, 0xFF, 0x0F, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}, 11), uint16(4094), true, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, maxval uint16, three bool, off uint8) {
		nc := 1
		if three {
			nc = 3
		}
		n := len(data) / 4 / nc
		srcs := make([][]int32, nc)
		for c := range srcs {
			srcs[c] = make([]int32, n)
			for i := range srcs[c] {
				srcs[c][i] = int32(binary.LittleEndian.Uint32(data[4*(c*n+i):]))
			}
		}
		checkPack(t, int(off%8), int(maxval%65535)+1, srcs...)
	})
}

// failAfter fails the n-th Write.
// TestAppendPNMHeaderMatchesFmt pins the strconv header to the fmt form it
// replaced, byte for byte, after a non-empty prefix, and checks that it
// allocates nothing once dst has room.
func TestAppendPNMHeaderMatchesFmt(t *testing.T) {
	prefix := []byte("xy")
	for _, ncomp := range []int{1, 3, 4} {
		for _, dim := range [][2]int{{1, 1}, {9, 10}, {230, 190}, {1024, 768}, {65535, 1}, {1 << 20, 1 << 20}} {
			for _, maxval := range []int{1, 255, 256, 4095, 65535} {
				magic := "P5"
				if ncomp == 3 {
					magic = "P6"
				}
				want := fmt.Appendf(append([]byte(nil), prefix...), "%s\n%d %d\n%d\n", magic, dim[0], dim[1], maxval)
				got := AppendPNMHeader(append([]byte(nil), prefix...), ncomp, dim[0], dim[1], maxval)
				if !bytes.Equal(got, want) {
					t.Errorf("ncomp %d, %dx%d, maxval %d: %q, want %q", ncomp, dim[0], dim[1], maxval, got, want)
				}
			}
		}
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { AppendPNMHeader(buf, 3, 1024, 768, 65535) }); n != 0 {
		t.Errorf("AppendPNMHeader allocates %.0f times into a buffer with room", n)
	}
}

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

// BenchmarkPackSamples packs 1024x768 viewports out of 256 cached 128x128
// int32 tiles (16 MiB, larger than L2): each viewport takes the next 48 tiles
// of the set (144 for rgb8, three per pixel tile) and packs them row by row
// into their window positions: the packer alone, on tiles that live in L3.
func BenchmarkPackSamples(b *testing.B) {
	const T, nTiles, vw, vh = 128, 256, 1024, 768
	for _, c := range []struct {
		name       string
		nc, maxval int
	}{{"gray8", 1, 255}, {"rgb8", 3, 255}, {"gray16", 1, 65535}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			tiles := make([][]int32, nTiles)
			for i := range tiles {
				tiles[i] = make([]int32, T*T)
				for j := range tiles[i] {
					tiles[i][j] = int32(rng.Intn(c.maxval+17)) - 8
				}
			}
			bps := SampleBytes(c.maxval)
			dst := make([]byte, vw*vh*c.nc*bps)
			var rows [3][]int32
			next := 0
			b.ReportAllocs()
			for b.Loop() {
				for ty := range vh / T {
					for tx := range vw / T {
						tile := next
						next = (next + c.nc) % nTiles
						for y := range T {
							for k := range c.nc {
								rows[k] = tiles[(tile+k)%nTiles][y*T : (y+1)*T]
							}
							PackSamples(dst[((ty*T+y)*vw+tx*T)*c.nc*bps:], c.maxval, rows[:c.nc]...)
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vw*vh*c.nc), "ns/sample")
		})
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
