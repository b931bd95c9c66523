package experiments

import (
	"fmt"
	"time"

	"pj2k/internal/dwt"
	"pj2k/internal/jp2k"
	"pj2k/internal/jpegbase"
	"pj2k/internal/raster"
	"pj2k/internal/spiht"
)

// Fig2 reproduces the compression-timings comparison: encoding time of JPEG,
// SPIHT and JPEG2000 across image sizes (paper Fig. 2). The paper's JJ2000
// (Java) and Jasper (C) series are played by the single Go implementation —
// the paper itself found "not much difference between the C and JAVA
// implementations". sizes are in Kpixels.
func Fig2(sizes []int) *Table {
	t := &Table{
		Title:   "Fig. 2 — Compression timings (encode, seconds)",
		Columns: []string{"Kpixels", "JPEG", "SPIHT", "JPEG2000"},
		Notes: []string{
			"JPEG at quality 75; SPIHT and JPEG2000 at 1.0 bpp.",
			"paper shape: JPEG fastest by a wide margin, JPEG2000 slowest;",
			"SPIHT skips sizes whose side is not a power of two.",
		},
	}
	// Best of two runs per coder: the first run of each pays for cold caches
	// and fresh heap, which at the small sizes is as large as the gap between
	// SPIHT and a JPEG2000 encoder that stops tier-1 where PCRD stops.
	best := func(run func()) time.Duration {
		var d time.Duration
		for i := 0; i < 2; i++ {
			t0 := time.Now()
			run()
			if e := time.Since(t0); i == 0 || e < d {
				d = e
			}
		}
		return d
	}
	for _, kp := range sizes {
		im := raster.KPixelImage(kp, uint64(kp))
		n := im.Width * im.Height

		jpegTime := best(func() { jpegbase.Encode(im, 75) })

		spihtCell := "-"
		if im.Width == im.Height && im.Width&(im.Width-1) == 0 {
			var err error
			d := best(func() { _, err = spiht.Encode(im, 5, n/8) })
			if err == nil {
				spihtCell = fmt.Sprintf("%.3f", d.Seconds())
			}
		}

		j2kTime := best(func() {
			_, _, err := jp2k.Encode(im, jp2k.Options{
				Kernel: dwt.Irr97, LayerBPP: []float64{1.0}, Workers: 1,
				VertMode: dwt.VertNaive, // the reference implementations' filter
			})
			if err != nil {
				panic(err)
			}
		})

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", kp),
			fmt.Sprintf("%.3f", jpegTime.Seconds()),
			spihtCell,
			fmt.Sprintf("%.3f", j2kTime.Seconds()),
		})
	}
	return t
}

// Fig3 reproduces the serial runtime analysis: per-stage encoder time across
// image sizes (paper Fig. 3). The original implementations' vertical filter
// (column at a time) is used, as in the paper's baseline.
func Fig3(sizes []int) *Table {
	t := &Table{
		Title:   "Fig. 3 — Serial runtime analysis (ms per stage)",
		Columns: []string{"Kpixels", "setup", "DWT", "quant", "tier-1", "R/D-alloc", "tier-2", "stream-I/O"},
		Notes: []string{
			"paper shape: the wavelet transform dominates, tier-1 coding second;",
			"setup/rate-allocation/bitstream I/O are comparatively small.",
		},
	}
	for _, kp := range sizes {
		tm, _ := measureStages(kp, dwt.Irr97, dwt.VertNaive, 1.0)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", kp),
			ms(tm.Setup), ms(tm.IntraComp), ms(tm.Quant), ms(tm.Tier1),
			ms(tm.RateAlloc), ms(tm.Tier2), ms(tm.StreamIO),
		})
	}
	return t
}
