package dwt

import (
	"time"

	"pj2k/internal/core"
	"pj2k/internal/raster"
)

// Kept for bench/ only; deleted in the benchmark PR (ROADMAP item 7).

// Timings separates the horizontal and vertical filtering time of a
// multi-level transform — the quantities Figs. 7, 8, 10 and 11 of the paper
// plot.
type Timings struct {
	Horizontal time.Duration
	Vertical   time.Duration
}

// Forward53Timed is Forward53 with per-direction timing.
func Forward53Timed(im *raster.Image, levels int, st Strategy) Timings {
	var tm [2]time.Duration
	run(imagePlane(im), levels, st, &rev53, true, &tm)
	return Timings{tm[0], tm[1]}
}

// Forward97Timed is Forward97 with per-direction timing.
func Forward97Timed(p *FPlane, levels int, st Strategy) Timings {
	var tm [2]time.Duration
	run(p.plane(), levels, st, &irr97, true, &tm)
	return Timings{tm[0], tm[1]}
}

// NewScratch returns scratch state for up to `workers` parallel workers
// (<= 0 selects GOMAXPROCS, matching Strategy.Workers semantics).
func NewScratch(workers int) *Scratch {
	return &Scratch{ws: make([]scratchSlot, core.Workers(workers))}
}
