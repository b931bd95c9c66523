package dwt

import (
	"testing"

	"pj2k/internal/raster"
)

func TestForward53TimedMatchesUntimed(t *testing.T) {
	a := randomImage(96, 80, 41)
	b := a.Clone()
	tm := Forward53Timed(a, 3, serial)
	Forward53(b, 3, serial)
	if !raster.Equal(a, b) {
		t.Fatal("timed transform produced different output")
	}
	if tm.Horizontal < 0 || tm.Vertical < 0 || tm.Horizontal+tm.Vertical <= 0 {
		t.Fatalf("bad timings: %+v", tm)
	}
}

func TestForward97TimedMatchesUntimed(t *testing.T) {
	im := randomImage(96, 80, 42)
	a := FromImage(im)
	b := FromImage(im)
	tm := Forward97Timed(a, 3, Improved)
	Forward97(b, 3, Improved)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("timed 9/7 differs at %d", i)
		}
	}
	if tm.Horizontal+tm.Vertical <= 0 {
		t.Fatal("zero timing")
	}
}
