package raster

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	im := New(7, 5)
	if im.Stride != 7 || len(im.Pix) != 35 {
		t.Fatalf("stride %d len %d", im.Stride, len(im.Pix))
	}
	im.Set(6, 4, -42)
	if im.At(6, 4) != -42 {
		t.Fatalf("At = %d", im.At(6, 4))
	}
	if len(im.Row(4)) != 7 {
		t.Fatalf("row len %d", len(im.Row(4)))
	}
}

func TestPaddedStride(t *testing.T) {
	im := NewPadded(512, 4, 520)
	im.Set(511, 3, 9)
	if im.Pix[3*520+511] != 9 {
		t.Fatal("padded indexing broken")
	}
	c := im.Clone()
	if c.Stride != 512 || c.At(511, 3) != 9 {
		t.Fatal("clone must drop padding but keep samples")
	}
}

func TestSubImageAliases(t *testing.T) {
	im := New(8, 8)
	sub, err := im.SubImage(2, 3, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	sub.Set(0, 0, 77)
	if im.At(2, 3) != 77 {
		t.Fatal("subimage must alias parent")
	}
	if sub.Width != 4 || sub.Height != 4 {
		t.Fatalf("subimage dims %dx%d", sub.Width, sub.Height)
	}
	if _, err := im.SubImage(5, 5, 5, 9); err == nil {
		t.Fatal("want error for empty/oob rectangle")
	}
}

// fill sets every sample of a New image to v.
func fill(im *Image, v int32) {
	for i := range im.Pix {
		im.Pix[i] = v
	}
}

func TestEqualAndFill(t *testing.T) {
	a, b := New(4, 4), New(4, 4)
	fill(a, 3)
	if Equal(a, b) {
		t.Fatal("different images reported equal")
	}
	fill(b, 3)
	if !Equal(a, b) {
		t.Fatal("identical images reported unequal")
	}
	if Equal(a, New(4, 5)) {
		t.Fatal("different sizes reported equal")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(64, 48, 7)
	b := Synthetic(64, 48, 7)
	if !Equal(a, b) {
		t.Fatal("same seed must give same image")
	}
	c := Synthetic(64, 48, 8)
	if Equal(a, c) {
		t.Fatal("different seeds gave identical images")
	}
	for y := 0; y < a.Height; y++ {
		for _, v := range a.Row(y) {
			if v < 0 || v > 255 {
				t.Fatalf("sample %d out of 8-bit range", v)
			}
		}
	}
}

func TestSyntheticHasStructure(t *testing.T) {
	// The generator must produce non-trivial variance (not flat) and local
	// correlation (neighbor diffs smaller than global spread) or the R/D
	// experiments would be meaningless.
	im := Synthetic(256, 256, 1)
	var sum, sum2 float64
	n := float64(im.Width * im.Height)
	for y := 0; y < im.Height; y++ {
		for _, v := range im.Row(y) {
			sum += float64(v)
			sum2 += float64(v) * float64(v)
		}
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if variance < 100 {
		t.Fatalf("variance %.1f too small; image nearly flat", variance)
	}
	var diff2 float64
	for y := 0; y < im.Height; y++ {
		r := im.Row(y)
		for x := 1; x < im.Width; x++ {
			d := float64(r[x] - r[x-1])
			diff2 += d * d
		}
	}
	diffVar := diff2 / n
	if diffVar > variance {
		t.Fatalf("neighbor-difference energy %.1f exceeds variance %.1f; no spatial correlation", diffVar, variance)
	}
}

func TestRadiographRange(t *testing.T) {
	im := SyntheticRadiograph(128, 128, 3)
	var maxv int32
	for y := 0; y < im.Height; y++ {
		for _, v := range im.Row(y) {
			if v < 0 || v > 4095 {
				t.Fatalf("sample %d out of 12-bit range", v)
			}
			if v > maxv {
				maxv = v
			}
		}
	}
	if maxv < 2000 {
		t.Fatalf("radiograph lacks bright structure (max %d)", maxv)
	}
}

func TestKPixelImageSizes(t *testing.T) {
	for _, kp := range []int{256, 1024, 4096} {
		im := KPixelImage(kp, 1)
		got := im.Width * im.Height
		want := kp * 1024
		if got < want*8/10 || got > want {
			t.Fatalf("KPixelImage(%d) = %d pixels, want ~%d", kp, got, want)
		}
		if im.Width%32 != 0 {
			t.Fatalf("width %d not a multiple of 32", im.Width)
		}
	}
}

func TestPGMRoundTrip8(t *testing.T) {
	im := Synthetic(33, 21, 5)
	var buf bytes.Buffer
	if err := WritePGM(&buf, im, 255); err != nil {
		t.Fatal(err)
	}
	back, maxval, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if maxval != 255 || !Equal(im, back) {
		t.Fatal("8-bit PGM round trip failed")
	}
}

func TestPGMRoundTrip16(t *testing.T) {
	im := SyntheticRadiograph(17, 9, 2)
	var buf bytes.Buffer
	if err := WritePGM(&buf, im, 4095); err != nil {
		t.Fatal(err)
	}
	back, maxval, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if maxval != 4095 || !Equal(im, back) {
		t.Fatal("16-bit PGM round trip failed")
	}
}

func TestPGMComments(t *testing.T) {
	data := []byte("P5\n# a comment\n2 2\n255\n\x01\x02\x03\x04")
	im, _, err := ReadPGM(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if im.At(1, 1) != 4 {
		t.Fatalf("got %d", im.At(1, 1))
	}
}

func TestPGMErrors(t *testing.T) {
	cases := [][]byte{
		[]byte("P6\n2 2\n255\n....."),      // wrong magic
		[]byte("P5\n0 2\n255\n"),           // zero width
		[]byte("P5\n2 2\n255\n\x01"),       // truncated pixels
		[]byte("P5\n2 2\n70000\n\x01\x01"), // maxval too large
	}
	for i, c := range cases {
		if _, _, err := ReadPGM(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: want error", i)
		}
	}
}

func TestQuickPGMRoundTrip(t *testing.T) {
	f := func(w8, h8 uint8, seed uint64) bool {
		w, h := 1+int(w8%40), 1+int(h8%40)
		im := Synthetic(max(w, 8), max(h, 8), seed)
		var buf bytes.Buffer
		if err := WritePGM(&buf, im, 255); err != nil {
			return false
		}
		back, _, err := ReadPGM(&buf)
		return err == nil && Equal(im, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
