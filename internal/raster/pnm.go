package raster

import (
	"bufio"
	"fmt"
	"io"
)

// WritePGM writes the image as a binary PGM (P5). maxval selects 8- or 16-bit
// output; samples are clamped into [0, maxval].
func WritePGM(w io.Writer, im *Image, maxval int) error {
	if maxval <= 0 || maxval > 65535 {
		return fmt.Errorf("raster: invalid PGM maxval %d", maxval)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "P5\n%d %d\n%d\n", im.Width, im.Height, maxval)
	wide := maxval > 255
	for y := 0; y < im.Height; y++ {
		for _, v := range im.Row(y) {
			if v < 0 {
				v = 0
			} else if v > int32(maxval) {
				v = int32(maxval)
			}
			if wide {
				bw.WriteByte(byte(v >> 8))
			}
			bw.WriteByte(byte(v))
		}
	}
	return bw.Flush()
}

// WritePPM writes a three-component image as a binary PPM (P6) with
// interleaved RGB samples. maxval selects 8- or 16-bit output; samples are
// clamped into [0, maxval].
func WritePPM(w io.Writer, pl *Planar, maxval int) error {
	if maxval <= 0 || maxval > 65535 {
		return fmt.Errorf("raster: invalid PPM maxval %d", maxval)
	}
	if pl.NComp() != 3 {
		return fmt.Errorf("raster: PPM needs 3 components, have %d", pl.NComp())
	}
	if err := pl.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "P6\n%d %d\n%d\n", pl.Width(), pl.Height(), maxval)
	wide := maxval > 255
	for y := 0; y < pl.Height(); y++ {
		rows := [3][]int32{pl.Comps[0].Row(y), pl.Comps[1].Row(y), pl.Comps[2].Row(y)}
		for x := 0; x < pl.Width(); x++ {
			for c := 0; c < 3; c++ {
				v := rows[c][x]
				if v < 0 {
					v = 0
				} else if v > int32(maxval) {
					v = int32(maxval)
				}
				if wide {
					bw.WriteByte(byte(v >> 8))
				}
				bw.WriteByte(byte(v))
			}
		}
	}
	return bw.Flush()
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
	bpp := 1 + b2i(wide)
	buf := make([]byte, width*ncomp*bpp)
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

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
