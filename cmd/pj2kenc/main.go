// Command pj2kenc compresses a PGM (grayscale) or PPM (color) image into a
// JPEG2000 codestream. Color input produces a standard Csiz=3 codestream with
// the inter-component transform applied (disable with -mct=false).
//
//	pj2kenc -in image.pgm|image.ppm -out image.j2k [-rate 1.0] [-lossless] \
//	        [-levels 5] [-tile 0] [-workers 0] [-mct] [-improved] [-verbose] \
//	        [-resilient | -sop -eph -segsym] [-coder bypass,termall,reset,causal]
//
// The samples are coded at the bit depth the input's maxval needs: 8 bits up
// to 255, 12 for a maxval of 4095, and so on. pj2kdec writes that depth back
// by default, so a lossless round trip reproduces a 2^n - 1 maxval file byte
// for byte.
//
// The resilience flags embed the JPEG2000 error-resilience tools — SOP
// packet framing, EPH header terminators, cleanup-pass segmentation symbols
// — so a decoder in resilient mode can detect damage, resynchronize and
// conceal instead of discarding the stream. -resilient turns on all three.
//
// -coder selects optional code-block coding styles (comma-separated):
// "bypass" (lazy mode: raw-coded significance/refinement passes after the
// fourth plane — faster, slightly larger), "termall" (terminate every pass,
// enabling exact truncation and parallel in-block decode with bypass),
// "reset" (reset contexts each pass), "causal" (stripe-causal contexts).
// All are signalled in the COD marker; any JPEG2000 Part 1 decoder reads
// the result.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/bits"
	"os"
	"strings"

	"pj2k/internal/dwt"
	"pj2k/internal/jp2k"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// parseCoder maps the -coder comma list onto jp2k.CoderOptions.
func parseCoder(spec string) (jp2k.CoderOptions, error) {
	var c jp2k.CoderOptions
	if spec == "" {
		return c, nil
	}
	for _, tok := range strings.Split(spec, ",") {
		switch strings.TrimSpace(tok) {
		case "bypass":
			c.Bypass = true
		case "termall":
			c.TermAll = true
		case "reset":
			c.ResetCtx = true
		case "causal":
			c.Causal = true
		case "":
		default:
			return c, fmt.Errorf("unknown coder style %q (want bypass, termall, reset, causal)", tok)
		}
	}
	return c, nil
}

func main() {
	in := flag.String("in", "", "input image: binary PGM (P5) or PPM (P6)")
	out := flag.String("out", "", "output codestream file")
	rate := flag.Float64("rate", 1.0, "target bitrate in bits per pixel (lossy mode)")
	lossless := flag.Bool("lossless", false, "use the reversible 5/3 transform, no rate target")
	levels := flag.Int("levels", 5, "wavelet decomposition levels, 1-32")
	tile := flag.Int("tile", 0, "tile size (0 = whole image; quality suffers, see paper Fig. 5)")
	workers := flag.Int("workers", 0, "parallel workers (0 = all CPUs)")
	mct := flag.Bool("mct", true, "apply the inter-component transform to color input")
	improved := flag.Bool("improved", true, "use the paper's improved (blocked) vertical filtering")
	verbose := flag.Bool("verbose", false, "print the per-stage timing breakdown")
	stats := flag.Bool("stats", false, "alias for -verbose")
	resilient := flag.Bool("resilient", false, "enable every error-resilience tool (-sop -eph -segsym)")
	sop := flag.Bool("sop", false, "frame each packet with a numbered SOP marker (resync anchor)")
	eph := flag.Bool("eph", false, "terminate each packet header with an EPH marker")
	segsym := flag.Bool("segsym", false, "embed segmentation symbols after each cleanup pass (corruption detector)")
	coder := flag.String("coder", "", "code-block coding styles, comma-separated: bypass,termall,reset,causal")
	flag.Parse()
	if *in == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	// Options.Levels 0 means the default depth, so 0 is refused here rather
	// than silently encoded as 5.
	if *levels < 1 || *levels > t2.MaxLevels {
		log.Fatalf("-levels %d: decomposition levels out of range 1-%d", *levels, t2.MaxLevels)
	}
	coderOpts, err := parseCoder(*coder)
	if err != nil {
		log.Fatal(err)
	}

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	pl, maxval, err := raster.ReadPNM(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	depth := max(8, bits.Len(uint(maxval)))

	opts := jp2k.Options{
		Levels:   *levels,
		Workers:  *workers,
		BitDepth: depth,
		MCT:      *mct && pl.NComp() == 3,
		Coder:    coderOpts,
		Resilience: jp2k.ResilienceOptions{
			SOP:        *sop || *resilient,
			EPH:        *eph || *resilient,
			SegSymbols: *segsym || *resilient,
		},
	}
	if !*improved {
		opts.VertMode = dwt.VertNaive
	}
	if *lossless {
		opts.Kernel = dwt.Rev53
	} else {
		opts.Kernel = dwt.Irr97
		opts.LayerBPP = []float64{*rate}
	}
	if *tile > 0 {
		opts.TileW, opts.TileH = *tile, *tile
	}
	cs, st, err := jp2k.EncodePlanar(pl, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, cs, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %dx%dx%d -> %d bytes (%.3f bpp), %d code-blocks\n",
		*out, pl.Width(), pl.Height(), pl.NComp(), st.Bytes, st.BPP, st.CodeBlocks)
	if *verbose || *stats {
		fmt.Print(st.Timings.Breakdown())
		fmt.Print(st.Tier1Work())
	}
}
