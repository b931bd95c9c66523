package dwt

import (
	"time"

	"pj2k/internal/raster"
)

// Timings separates the horizontal and vertical filtering time of a
// multi-level transform — the quantities Figs. 7, 8, 10 and 11 of the paper
// plot.
type Timings struct {
	Horizontal time.Duration
	Vertical   time.Duration
}

// Total returns the summed filtering time.
func (t Timings) Total() time.Duration { return t.Horizontal + t.Vertical }

// Forward53Timed is Forward53 with per-direction timing.
func Forward53Timed(im *raster.Image, levels int, st Strategy) Timings {
	var tm Timings
	for l := 0; l < levels; l++ {
		cw, ch := levelDims(im.Width, im.Height, l)
		t0 := time.Now()
		horizontalLevel53(im, cw, ch, st, true)
		t1 := time.Now()
		verticalLevel53(im, cw, ch, st, true)
		tm.Horizontal += t1.Sub(t0)
		tm.Vertical += time.Since(t1)
	}
	return tm
}

// Forward97Timed is Forward97 with per-direction timing.
func Forward97Timed(p *FPlane, levels int, st Strategy) Timings {
	var tm Timings
	for l := 0; l < levels; l++ {
		cw, ch := levelDims(p.Width, p.Height, l)
		t0 := time.Now()
		horizontalLevel97(p, cw, ch, st, true)
		t1 := time.Now()
		verticalLevel97(p, cw, ch, st, true)
		tm.Horizontal += t1.Sub(t0)
		tm.Vertical += time.Since(t1)
	}
	return tm
}
