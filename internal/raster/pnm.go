package raster

import (
	"bufio"
	"fmt"
	"io"
)

// AppendPNMHeader appends the binary PNM header of a width x height image to
// dst: P5 (PGM) for one component, P6 (PPM) for three.
func AppendPNMHeader(dst []byte, ncomp, width, height, maxval int) []byte {
	magic := "P5"
	if ncomp == 3 {
		magic = "P6"
	}
	return fmt.Appendf(dst, "%s\n%d %d\n%d\n", magic, width, height, maxval)
}

// SampleBytes is the wire width of one sample at maxval: one byte up to 255,
// a big-endian pair above.
func SampleBytes(maxval int) int {
	if maxval > 255 {
		return 2
	}
	return 1
}

// PackSamples clamps src into [0, maxval] and narrows it into dst in wire
// format, SampleBytes(maxval) bytes each. Consecutive samples land step
// sample-widths apart: 1 packs a plane or a PGM row densely, 3 drops one
// component into its slots of an interleaved PPM row. This is the repo's one
// clamp-and-serialise loop: the PNM writers and the tile server's response
// assembly both run on it.
func PackSamples(dst []byte, src []int32, maxval, step int) {
	hi := int32(maxval)
	switch {
	case maxval > 255:
		for i, v := range src {
			v = min(max(v, 0), hi)
			dst[2*i*step], dst[2*i*step+1] = byte(v>>8), byte(v)
		}
	case step == 1:
		dst = dst[:len(src)]
		for i, v := range src {
			dst[i] = byte(min(max(v, 0), hi))
		}
	default:
		for i, v := range src {
			dst[i*step] = byte(min(max(v, 0), hi))
		}
	}
}

// pnmChunk is the writers' buffer target: whole rows are packed until this
// many bytes are pending, then go out in one Write.
const pnmChunk = 64 << 10

// writePNM writes the header and the interleaved, clamped samples of comps
// (equal dimensions; one plane is a PGM, three a PPM).
func writePNM(w io.Writer, comps []*Image, maxval int) error {
	if maxval <= 0 || maxval > 65535 {
		return fmt.Errorf("raster: invalid PNM maxval %d", maxval)
	}
	width, height, nc := comps[0].Width, comps[0].Height, len(comps)
	bps := SampleBytes(maxval)
	rowBytes := width * nc * bps
	// The header rides in the first chunk (+32: room for it beside a row).
	buf := AppendPNMHeader(make([]byte, 0, max(pnmChunk, rowBytes)+32), nc, width, height, maxval)
	for y := 0; y < height; y++ {
		if len(buf)+rowBytes > cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		row := buf[len(buf) : len(buf)+rowBytes]
		for c, im := range comps {
			PackSamples(row[c*bps:], im.Row(y), maxval, nc)
		}
		buf = buf[:len(buf)+rowBytes]
	}
	_, err := w.Write(buf)
	return err
}

// WritePGM writes the image as a binary PGM (P5). maxval selects 8- or 16-bit
// output; samples are clamped into [0, maxval].
func WritePGM(w io.Writer, im *Image, maxval int) error {
	return writePNM(w, []*Image{im}, maxval)
}

// WritePPM writes a three-component image as a binary PPM (P6) with
// interleaved RGB samples. maxval selects 8- or 16-bit output; samples are
// clamped into [0, maxval].
func WritePPM(w io.Writer, pl *Planar, maxval int) error {
	if pl.NComp() != 3 {
		return fmt.Errorf("raster: PPM needs 3 components, have %d", pl.NComp())
	}
	if err := pl.Validate(); err != nil {
		return err
	}
	return writePNM(w, pl.Comps, maxval)
}

// ReadPGM reads a binary PGM (P5). It returns the image and the maxval
// declared in the header.
func ReadPGM(r io.Reader) (*Image, int, error) {
	pl, maxval, err := ReadPNM(r)
	if err != nil {
		return nil, 0, err
	}
	if pl.NComp() != 1 {
		return nil, 0, fmt.Errorf("raster: expected PGM, got %d-component PNM", pl.NComp())
	}
	return pl.Comps[0], maxval, nil
}

// ReadPPM reads a binary PPM (P6) into a three-component Planar.
func ReadPPM(r io.Reader) (*Planar, int, error) {
	pl, maxval, err := ReadPNM(r)
	if err != nil {
		return nil, 0, err
	}
	if pl.NComp() != 3 {
		return nil, 0, fmt.Errorf("raster: expected PPM, got %d-component PNM", pl.NComp())
	}
	return pl, maxval, nil
}

// Dimension caps for PNM headers, matching the codestream parser's SIZ
// limits (t2.ScanCodestream): an image the codec could never decode is
// rejected at read time instead of allocating for it.
const (
	MaxPNMDim    = 1 << 20
	MaxPNMPixels = 1 << 28
)

// ReadPNM reads a binary PNM — PGM (P5, one component) or PPM (P6, three
// components) — returning the planes and the maxval declared in the header.
// Headers beyond MaxPNMDim per side or MaxPNMPixels total are rejected.
func ReadPNM(r io.Reader) (*Planar, int, error) {
	br := bufio.NewReader(r)
	var magic string
	if _, err := fmt.Fscan(br, &magic); err != nil {
		return nil, 0, fmt.Errorf("raster: reading PNM magic: %w", err)
	}
	ncomp := 0
	switch magic {
	case "P5":
		ncomp = 1
	case "P6":
		ncomp = 3
	default:
		return nil, 0, fmt.Errorf("raster: unsupported PNM magic %q", magic)
	}
	width, err := readPNMInt(br)
	if err != nil {
		return nil, 0, err
	}
	height, err := readPNMInt(br)
	if err != nil {
		return nil, 0, err
	}
	maxval, err := readPNMInt(br)
	if err != nil {
		return nil, 0, err
	}
	if width <= 0 || height <= 0 || maxval <= 0 || maxval > 65535 ||
		width > MaxPNMDim || height > MaxPNMDim || height > MaxPNMPixels/width {
		return nil, 0, fmt.Errorf("raster: bad PNM header %dx%d maxval %d", width, height, maxval)
	}
	// Header ends with exactly one whitespace byte, already consumed by
	// readPNMInt.
	pl := NewPlanar(width, height, ncomp)
	wide := maxval > 255
	buf := make([]byte, width*ncomp*SampleBytes(maxval))
	for y := 0; y < height; y++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, 0, fmt.Errorf("raster: reading PNM row %d: %w", y, err)
		}
		for c := 0; c < ncomp; c++ {
			row := pl.Comps[c].Row(y)
			if wide {
				for x := 0; x < width; x++ {
					off := (x*ncomp + c) * 2
					row[x] = int32(buf[off])<<8 | int32(buf[off+1])
				}
			} else {
				for x := 0; x < width; x++ {
					row[x] = int32(buf[x*ncomp+c])
				}
			}
		}
	}
	return pl, maxval, nil
}

// readPNMInt reads the next decimal integer, skipping whitespace and
// '#'-comments, consuming exactly one trailing whitespace byte.
func readPNMInt(br *bufio.Reader) (int, error) {
	n := 0
	seen := false
	for {
		c, err := br.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("raster: PGM header: %w", err)
		}
		switch {
		case c == '#' && !seen:
			if _, err := br.ReadString('\n'); err != nil {
				return 0, err
			}
		case c >= '0' && c <= '9':
			seen = true
			n = n*10 + int(c-'0')
			if n > 1<<30 {
				return 0, fmt.Errorf("raster: PGM header value overflow")
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			if seen {
				return n, nil
			}
		default:
			return 0, fmt.Errorf("raster: unexpected byte %q in PGM header", c)
		}
	}
}
