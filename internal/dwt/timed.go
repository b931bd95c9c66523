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
	run(imagePlane(im), levels, st, &rev53, true, &tm)
	return tm
}

// Forward97Timed is Forward97 with per-direction timing.
func Forward97Timed(p *FPlane, levels int, st Strategy) Timings {
	var tm Timings
	run(p.plane(), levels, st, &irr97, true, &tm)
	return tm
}
