package raster

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// AppendPNMHeader appends the binary PNM header of a width x height image to
// dst: P5 (PGM) for one component, P6 (PPM) for three. It appends with
// strconv, not fmt, so a warm call allocates nothing.
func AppendPNMHeader(dst []byte, ncomp, width, height, maxval int) []byte {
	magic := "P5\n"
	if ncomp == 3 {
		magic = "P6\n"
	}
	dst = append(dst, magic...)
	dst = strconv.AppendInt(dst, int64(width), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(height), 10)
	dst = append(dst, '\n')
	dst = strconv.AppendInt(dst, int64(maxval), 10)
	return append(dst, '\n')
}

// SampleBytes is the wire width of one sample at maxval: one byte up to 255,
// a big-endian pair above.
func SampleBytes(maxval int) int {
	if maxval > 255 {
		return 2
	}
	return 1
}

// PackSamples clamps the samples of srcs into [0, maxval] and narrows them
// into dst in wire format, SampleBytes(maxval) bytes each. One source packs
// densely (a PGM row, a row of one planar raw component); three sources of
// equal length interleave into RGB triplets (a PPM row). This is the repo's
// one clamp-and-serialise loop: the PNM writers run on it, and the tile
// server runs it once per tile miss, to pack the tile it caches; a cache hit
// copies those bytes and does not run it.
func PackSamples(dst []byte, maxval int, srcs ...[]int32) {
	hi := int32(maxval)
	switch {
	case maxval > 255:
		w := 2 * len(srcs) // bytes per pixel
		for c, src := range srcs {
			d := dst[2*c:]
			for i, v := range src {
				v = min(max(v, 0), hi)
				d[w*i], d[w*i+1] = byte(v>>8), byte(v)
			}
		}
	case len(srcs) == 1:
		pack8(dst, srcs[0], hi)
	default:
		interleave8(dst, srcs[0], srcs[1], srcs[2], hi)
	}
}

// clamp8 is one 8-bit wire sample.
func clamp8(v, hi int32) byte { return byte(min(max(v, 0), hi)) }

// pack8 packs src densely, eight samples per iteration. On tiles that live in
// L3 the loop is bound by how many loads it keeps in flight, not by memory
// bandwidth: eight independent loads behind one bounds check per slice run
// ~1.6x faster than one sample per iteration. Sixteen were no faster.
func pack8(dst []byte, src []int32, hi int32) {
	n := len(src)
	dst = dst[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		s, d := src[i:i+8:i+8], dst[i:i+8:i+8]
		d[0], d[1], d[2], d[3] = clamp8(s[0], hi), clamp8(s[1], hi), clamp8(s[2], hi), clamp8(s[3], hi)
		d[4], d[5], d[6], d[7] = clamp8(s[4], hi), clamp8(s[5], hi), clamp8(s[6], hi), clamp8(s[7], hi)
	}
	for ; i < n; i++ {
		dst[i] = clamp8(src[i], hi)
	}
}

// interleave8 writes r, g, b as RGB triplets in one pass, four pixels per
// iteration, instead of three strided passes over the same bytes.
func interleave8(dst []byte, r, g, b []int32, hi int32) {
	n := len(r)
	g, b, dst = g[:n], b[:n], dst[:3*n]
	i := 0
	for ; i+4 <= n; i += 4 {
		r4, g4, b4, d := r[i:i+4:i+4], g[i:i+4:i+4], b[i:i+4:i+4], dst[3*i:3*i+12:3*i+12]
		d[0], d[1], d[2] = clamp8(r4[0], hi), clamp8(g4[0], hi), clamp8(b4[0], hi)
		d[3], d[4], d[5] = clamp8(r4[1], hi), clamp8(g4[1], hi), clamp8(b4[1], hi)
		d[6], d[7], d[8] = clamp8(r4[2], hi), clamp8(g4[2], hi), clamp8(b4[2], hi)
		d[9], d[10], d[11] = clamp8(r4[3], hi), clamp8(g4[3], hi), clamp8(b4[3], hi)
	}
	for ; i < n; i++ {
		dst[3*i], dst[3*i+1], dst[3*i+2] = clamp8(r[i], hi), clamp8(g[i], hi), clamp8(b[i], hi)
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
	var rows [3][]int32
	for y := 0; y < height; y++ {
		if len(buf)+rowBytes > cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		for c, im := range comps {
			rows[c] = im.Row(y)
		}
		PackSamples(buf[len(buf):len(buf)+rowBytes], maxval, rows[:nc]...)
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
