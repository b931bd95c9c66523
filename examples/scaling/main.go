// Scaling example: the paper's experiment on your own machine. Encodes the
// same image with 1..NumCPU workers using real goroutines (verifying the
// stream is bit-identical every time) and prints each measured speedup beside
// the Amdahl bound from the measured Workers=1 serial fraction, then the
// simulated-SMP speedup for the paper's 4-CPU Intel testbed for comparison.
package main

import (
	"bytes"
	"fmt"
	"log"
	"runtime"
	"time"

	"pj2k/internal/amdahl"
	"pj2k/internal/cachesim"
	"pj2k/internal/dwt"
	"pj2k/internal/jp2k"
	"pj2k/internal/raster"
	"pj2k/internal/smp"
)

// samples is how many encodes each worker count gets; the fastest one is
// reported, which is the run the host interfered with least.
const samples = 5

func main() {
	im := raster.Synthetic(1024, 1024, 99)
	opts := jp2k.Options{
		Kernel:   dwt.Irr97,
		LayerBPP: []float64{1.0},
	}

	fmt.Printf("host: %d CPU(s)\n\nreal goroutines (1024x1024 @ 1.0 bpp, best of %d):\n", runtime.NumCPU(), samples)
	enc := jp2k.NewEncoder() // pooled pipeline: repeated encodes don't churn the allocator
	defer enc.Close()        // joins the encoder's resident workers
	// One untimed encode at full width sizes every worker's pools and arenas,
	// so no timed run — the Workers=1 baseline least of all — pays for them.
	opts.Workers = runtime.NumCPU()
	ref, _, err := enc.Encode(im, opts)
	if err != nil {
		log.Fatal(err)
	}
	var serial time.Duration
	var prof amdahl.Profile
	for w := 1; w <= runtime.NumCPU(); w *= 2 {
		opts.Workers = w
		var best time.Duration
		for i := 0; i < samples; i++ {
			t0 := time.Now()
			cs, stats, err := enc.Encode(im, opts)
			el := time.Since(t0)
			if err != nil {
				log.Fatal(err)
			}
			if !bytes.Equal(cs, ref) {
				log.Fatal("the worker count changed the codestream!")
			}
			if best == 0 || el < best {
				best = el
				if w == 1 {
					prof = stats.Timings.Profile()
				}
			}
		}
		if w == 1 {
			serial = best
		}
		fmt.Printf("  workers=%-2d  %8v  speedup %.2f  (Amdahl bound %.2f at serial fraction %.3f)\n",
			w, best.Round(time.Millisecond), serial.Seconds()/best.Seconds(),
			prof.Speedup(w), 1-prof.ParallelFraction())
	}

	fmt.Println("\nsimulated 4-CPU Pentium II Xeon SMP (the paper's testbed):")
	m := smp.PentiumIIXeon(4)
	spec := smp.FilterSpec{W: 1024, H: 1024, Stride: 1024, Levels: 5, Kernel: dwt.Irr97}
	work := smp.VerticalWork(cachesim.NewPentiumII(), spec)
	base := m.ParallelTime(work, 1, 5)
	for p := 1; p <= 4; p++ {
		fmt.Printf("  CPUs=%d  vertical filtering speedup %.2f\n", p, base/m.ParallelTime(work, p, 5))
	}
}
