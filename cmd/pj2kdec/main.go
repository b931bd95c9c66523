// Command pj2kdec decompresses a JPEG2000 codestream produced by pj2kenc
// back into a PGM (grayscale) or PPM (color, for Csiz=3 streams) image.
//
//	pj2kdec -in image.j2k -out image.pgm|image.ppm [-layers 0] [-reduce 0] \
//	        [-depth 0] [-workers 0] [-resilient] [-verbose]
//
// The output has the stream's own bit depth (its SIZ marker) unless -depth
// sets one: maxval 255 up to 8 bits, 2^depth - 1 above. The PNM writer clamps
// every sample into [0, maxval], so lossy overshoot never wraps.
//
// With -resilient, a damaged codestream decodes best-effort: corrupt packets
// and code-blocks are concealed, a damage summary goes to stderr, and the
// exit status stays 0 as long as an image came out (only an unrecoverable
// stream — nothing to decode at all — exits nonzero).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"pj2k/internal/jp2k"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

func main() {
	in := flag.String("in", "", "input codestream file")
	out := flag.String("out", "", "output PGM (1 component) or PPM (3 components) file")
	layers := flag.Int("layers", 0, "decode only the first N quality layers (0 = all)")
	reduce := flag.Int("reduce", 0, "discard the N highest resolution levels, decoding at 1/2^N scale")
	workers := flag.Int("workers", 0, "parallel workers (0 = all CPUs)")
	depth := flag.Int("depth", 0, "output bit depth (0 = the stream's depth; 8, or 12/16 for medical imagery)")
	resilient := flag.Bool("resilient", false, "conceal damaged packets/code-blocks instead of failing; damage report on stderr")
	verbose := flag.Bool("verbose", false, "print the per-stage timing breakdown")
	flag.Parse()
	if *in == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	// The codestream stays on disk: the decoder reads the headers, the
	// tile-part chain, and the tile bodies through the file source directly,
	// so decoding a window of a huge scene never pulls the whole file in.
	src, err := t2.OpenFile(*in)
	if err != nil {
		log.Fatal(err)
	}
	defer src.Close()
	dec := jp2k.NewDecoder()
	pl, err := dec.DecodePlanarSource(src, jp2k.DecodeOptions{
		MaxLayers:     *layers,
		DiscardLevels: *reduce,
		Workers:       *workers,
		Resilient:     *resilient,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The header the decode scanned, salvaged when -resilient decoded a
	// damaged stream: the container is read once.
	p := dec.Params()
	if *depth == 0 {
		*depth = p.BitDepth
	}
	maxval := 255
	if *depth > 8 {
		maxval = 1<<uint(*depth) - 1
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	switch pl.NComp() {
	case 1:
		err = raster.WritePGM(f, pl.Comps[0], maxval)
	case 3:
		err = raster.WritePPM(f, pl, maxval)
	default:
		err = fmt.Errorf("pj2kdec: no PNM format for %d components", pl.NComp())
	}
	if err != nil {
		log.Fatal(err)
	}
	if *resilient {
		if dmg := dec.Damage(); dmg.Damaged() {
			fmt.Fprintf(os.Stderr, "pj2kdec: %s: %s\n", *in, dmg)
			for _, td := range dmg.Tiles {
				// IO damage is a different operational problem than corrupt
				// bits (fix the storage, not the file), so it gets its own
				// marker on the tile line.
				io := ""
				if td.IOUnreadable > 0 {
					io = "; body UNREADABLE (IO) — tile concealed"
				}
				fmt.Fprintf(os.Stderr, "  tile %d: %d bad packets, %d resynced, %d lost, "+
					"%d blocks concealed, %d passes dropped%s\n",
					td.Tile, td.BadPackets, td.PacketsResynced, td.PacketsLost,
					td.BlocksConcealed, td.PassesDropped, io)
			}
		}
	}
	fmt.Printf("%s: %dx%dx%d decoded\n", *out, pl.Width(), pl.Height(), pl.NComp())
	if *verbose {
		st := dec.Stats()
		fmt.Printf("  %d bytes in, %d tiles, %d code-blocks\n", st.BytesIn, st.Tiles, st.CodeBlocks)
		if s := coderStyles(p); s != "" {
			fmt.Printf("  coder styles: %s\n", s)
		}
		fmt.Print(st.Timings.Breakdown())
	}
}

// coderStyles renders the COD code-block styles of a parsed stream the way
// pj2kenc's -coder flag spells them.
func coderStyles(p t2.Params) string {
	var s []string
	if p.Bypass {
		s = append(s, "bypass")
	}
	if p.TermAll {
		s = append(s, "termall")
	}
	if p.ResetCtx {
		s = append(s, "reset")
	}
	if p.Causal {
		s = append(s, "causal")
	}
	if p.SegSym {
		s = append(s, "segsym")
	}
	return strings.Join(s, ",")
}
