// Package spiht implements the SPIHT codec (Said & Pearlman 1996), the
// wavelet-based comparator of the paper's Fig. 2: set partitioning in
// hierarchical trees over the 9/7 DWT with raw (uncoded) significance bits,
// producing an embedded bitstream truncatable at any byte.
//
// Images must be square with power-of-two dimensions (the classic SPIHT
// restriction; the paper's benchmark sizes 256K/1024K/4096K/16384K pixels are
// all powers of two).
package spiht

import (
	"fmt"
	"math"

	"pj2k/internal/bitio"
	"pj2k/internal/dwt"
	"pj2k/internal/raster"
)

// scale is the fixed-point factor applied to normalized wavelet coefficients
// before integer truncation; 3 fractional bits cap quality around 48 dB,
// well above the benchmark operating points.
const scale = 8

type coord struct{ x, y int16 }

type lisEntry struct {
	c     coord
	typeB bool
}

// codec holds shared encoder/decoder tree state.
type codec struct {
	n      int // image side
	levels int
	rw     int     // LL side
	val    []int32 // |coefficient| (encoder) or reconstruction accumulator (decoder)
	sign   []bool
	maxD   []int32 // max |c| over all descendants
	maxGD  []int32 // max |c| over grandchildren and deeper
	lip    []coord
	lis    []lisEntry
	lsp    []coord
}

func (c *codec) idx(x, y int16) int { return int(y)*c.n + int(x) }

// children returns the four offspring of (x, y), or ok=false for leaves.
func (c *codec) children(x, y int16) ([4]coord, bool) {
	var out [4]coord
	rw := int16(c.rw)
	if int(x) < c.rw && int(y) < c.rw {
		// LL root: top-left of each 2x2 group has no offspring; the other
		// three root the HL/LH/HH pyramids of their spatial group.
		gx, gy := x&^1, y&^1
		odd := coord{x & 1, y & 1}
		if odd.x == 0 && odd.y == 0 {
			return out, false
		}
		var bx, by int16
		switch {
		case odd.x == 1 && odd.y == 0:
			bx, by = rw+gx, gy // HL
		case odd.x == 0 && odd.y == 1:
			bx, by = gx, rw+gy // LH
		default:
			bx, by = rw+gx, rw+gy // HH
		}
		out = [4]coord{{bx, by}, {bx + 1, by}, {bx, by + 1}, {bx + 1, by + 1}}
		return out, true
	}
	if int(2*x) >= c.n || int(2*y) >= c.n {
		return out, false
	}
	out = [4]coord{{2 * x, 2 * y}, {2*x + 1, 2 * y}, {2 * x, 2*y + 1}, {2*x + 1, 2*y + 1}}
	return out, true
}

// buildMax computes maxD/maxGD bottom-up.
func (c *codec) buildMax() {
	c.maxD = make([]int32, c.n*c.n)
	c.maxGD = make([]int32, c.n*c.n)
	// Process coordinates from finest to coarsest: larger coordinates first.
	// A simple reverse raster order works because children always have
	// strictly larger (x+y) band placement... iterate by decreasing level
	// region instead for clarity.
	for side := c.n; side > c.rw; side /= 2 {
		// All coords with max(x,y) in [side/2, side) are at this level.
		lo, hi := int16(side/2), int16(side)
		for y := int16(0); y < hi; y++ {
			for x := int16(0); x < hi; x++ {
				if x < lo && y < lo {
					continue
				}
				kids, ok := c.children(x, y)
				if !ok {
					continue
				}
				var d, gd int32
				for _, k := range kids {
					ki := c.idx(k.x, k.y)
					if v := c.val[ki]; v > d {
						d = v
					}
					if c.maxD[ki] > d {
						d = c.maxD[ki]
					}
					if c.maxD[ki] > gd {
						gd = c.maxD[ki]
					}
				}
				i := c.idx(x, y)
				c.maxD[i] = d
				c.maxGD[i] = gd
			}
		}
	}
	// LL roots.
	for y := int16(0); y < int16(c.rw); y++ {
		for x := int16(0); x < int16(c.rw); x++ {
			kids, ok := c.children(x, y)
			if !ok {
				continue
			}
			var d, gd int32
			for _, k := range kids {
				ki := c.idx(k.x, k.y)
				if v := c.val[ki]; v > d {
					d = v
				}
				if c.maxD[ki] > d {
					d = c.maxD[ki]
				}
				if c.maxD[ki] > gd {
					gd = c.maxD[ki]
				}
			}
			i := c.idx(x, y)
			c.maxD[i] = d
			c.maxGD[i] = gd
		}
	}
}

func (c *codec) initLists() {
	c.lip = c.lip[:0]
	c.lis = c.lis[:0]
	c.lsp = c.lsp[:0]
	for y := int16(0); y < int16(c.rw); y++ {
		for x := int16(0); x < int16(c.rw); x++ {
			c.lip = append(c.lip, coord{x, y})
			if !(x&1 == 0 && y&1 == 0) {
				c.lis = append(c.lis, lisEntry{c: coord{x, y}})
			}
		}
	}
}

// budgetWriter stops after a byte budget.
type budgetWriter struct {
	w      *bitio.Writer
	budget int // bits
	done   bool
}

func (b *budgetWriter) bit(v int) bool {
	if b.done || b.w.BitLen() >= b.budget {
		b.done = true
		return false
	}
	b.w.WriteBit(v)
	return true
}

// Encode compresses a square power-of-two image to maxBytes.
func Encode(im *raster.Image, levels, maxBytes int) ([]byte, error) {
	n := im.Width
	if im.Height != n || n&(n-1) != 0 || n < 1<<uint(levels) {
		return nil, fmt.Errorf("spiht: need square power-of-two image with side >= 2^levels, got %dx%d", im.Width, im.Height)
	}
	// Transform: level shift, 9/7, normalize by band norms, fixed-point.
	p := dwt.FromImage(im)
	for i := range p.Data {
		p.Data[i] -= 128
	}
	dwt.Forward97(p, levels, dwt.Improved)
	c := &codec{n: n, levels: levels, rw: n >> uint(levels)}
	c.val = make([]int32, n*n)
	c.sign = make([]bool, n*n)
	for _, b := range dwt.Subbands(n, n, levels) {
		nw := dwt.BandNorm(dwt.Irr97, levels, b)
		for y := b.Y0; y < b.Y1; y++ {
			for x := b.X0; x < b.X1; x++ {
				v := p.Data[y*p.Stride+x] * nw * scale
				i := y*n + x
				if v < 0 {
					c.sign[i] = true
					v = -v
				}
				c.val[i] = int32(v + 0.5)
			}
		}
	}
	c.buildMax()
	c.initLists()

	var maxv int32
	for _, v := range c.val {
		if v > maxv {
			maxv = v
		}
	}
	nbits := 0
	for m := maxv; m > 0; m >>= 1 {
		nbits++
	}
	if nbits == 0 {
		nbits = 1
	}
	w := bitio.NewWriter()
	w.WriteBits(uint32(nbits), 5)
	bw := &budgetWriter{w: w, budget: maxBytes * 8}

	for plane := nbits - 1; plane >= 0 && !bw.done; plane-- {
		c.sortingPass(bw, nil, int32(1)<<uint(plane))
		c.refinePassEnc(bw, uint(plane))
	}
	return w.Bytes(), nil
}

// sortingPass runs the LIP/LIS pass; with br != nil it decodes instead.
func (c *codec) sortingPass(bw *budgetWriter, br *budgetReader, thr int32) {
	// LIP
	keep := c.lip[:0]
	for _, p := range c.lip {
		i := c.idx(p.x, p.y)
		var sig int
		if br == nil {
			if c.val[i] >= thr {
				sig = 1
			}
			if !bw.bit(sig) {
				// Budget exhausted: retain remaining entries untouched.
				keep = append(keep, p)
				continue
			}
		} else {
			v, ok := br.bit()
			if !ok {
				keep = append(keep, p)
				continue
			}
			sig = v
		}
		if sig == 1 {
			if br == nil {
				s := 0
				if c.sign[i] {
					s = 1
				}
				bw.bit(s)
			} else {
				if s, ok := br.bit(); ok && s == 1 {
					c.sign[i] = true
				}
				c.val[i] = thr + thr/2 // 1.5 * 2^plane midpoint
			}
			c.lsp = append(c.lsp, p)
		} else {
			keep = append(keep, p)
		}
	}
	c.lip = keep
	// LIS (appending during iteration is part of the algorithm).
	for e := 0; e < len(c.lis); e++ {
		ent := c.lis[e]
		i := c.idx(ent.c.x, ent.c.y)
		if !ent.typeB {
			var sig int
			if br == nil {
				if c.maxD[i] >= thr {
					sig = 1
				}
				if !bw.bit(sig) {
					continue
				}
			} else {
				v, ok := br.bit()
				if !ok {
					continue
				}
				sig = v
			}
			if sig == 0 {
				continue
			}
			kids, _ := c.children(ent.c.x, ent.c.y)
			for _, k := range kids {
				ki := c.idx(k.x, k.y)
				var ksig int
				if br == nil {
					if c.val[ki] >= thr {
						ksig = 1
					}
					if !bw.bit(ksig) {
						continue
					}
				} else {
					v, ok := br.bit()
					if !ok {
						continue
					}
					ksig = v
				}
				if ksig == 1 {
					if br == nil {
						s := 0
						if c.sign[ki] {
							s = 1
						}
						bw.bit(s)
					} else {
						if s, ok := br.bit(); ok && s == 1 {
							c.sign[ki] = true
						}
						c.val[ki] = thr + thr/2
					}
					c.lsp = append(c.lsp, k)
				} else {
					c.lip = append(c.lip, k)
				}
			}
			// Type-B transition is structural (L(i,j) nonempty), so the
			// encoder and decoder decide it identically from geometry.
			if c.grandchildrenExist(ent.c) {
				c.lis = append(c.lis, lisEntry{c: ent.c, typeB: true})
			}
			c.lis[e].c.x = -1 // mark removed
		} else {
			var sig int
			if br == nil {
				if c.maxGD[i] >= thr {
					sig = 1
				}
				if !bw.bit(sig) {
					continue
				}
			} else {
				v, ok := br.bit()
				if !ok {
					continue
				}
				sig = v
			}
			if sig == 0 {
				continue
			}
			kids, _ := c.children(ent.c.x, ent.c.y)
			for _, k := range kids {
				c.lis = append(c.lis, lisEntry{c: k})
			}
			c.lis[e].c.x = -1
		}
	}
	// Compact removed entries.
	kept := c.lis[:0]
	for _, ent := range c.lis {
		if ent.c.x >= 0 {
			kept = append(kept, ent)
		}
	}
	c.lis = kept
}

// grandchildrenExist reports whether any child of p has children.
func (c *codec) grandchildrenExist(p coord) bool {
	kids, ok := c.children(p.x, p.y)
	if !ok {
		return false
	}
	for _, k := range kids {
		if _, ok := c.children(k.x, k.y); ok {
			return true
		}
	}
	return false
}

// refinePassEnc emits bit `plane` of every previously significant pixel.
func (c *codec) refinePassEnc(bw *budgetWriter, plane uint) {
	thr := int32(1) << plane
	for _, p := range c.lsp {
		i := c.idx(p.x, p.y)
		if c.val[i] >= thr<<1 { // significant before this plane
			bw.bit(int(c.val[i] >> plane & 1))
		}
	}
}

type budgetReader struct {
	r    *bitio.Reader
	done bool
}

func (b *budgetReader) bit() (int, bool) {
	if b.done {
		return 0, false
	}
	v, err := b.r.ReadBit()
	if err != nil {
		b.done = true
		return 0, false
	}
	return v, true
}

// refinePassDec mirrors refinePassEnc, updating midpoint reconstructions.
func (c *codec) refinePassDec(br *budgetReader, plane uint) {
	thr := int32(1) << plane
	for _, p := range c.lsp {
		i := c.idx(p.x, p.y)
		if c.val[i] >= thr<<1 {
			bit, ok := br.bit()
			if !ok {
				return
			}
			// Current value has midpoint offset thr (half the previous
			// step); replace with the refined midpoint.
			if bit == 1 {
				c.val[i] += thr / 2
			} else {
				c.val[i] -= (thr + 1) / 2
			}
		}
	}
}

// decode reconstructs an n x n image from a SPIHT stream.
func decode(data []byte, n, levels int) (*raster.Image, error) {
	if n&(n-1) != 0 || n < 1<<uint(levels) {
		return nil, fmt.Errorf("spiht: bad geometry n=%d levels=%d", n, levels)
	}
	r := bitio.NewReader(data)
	nbitsU, err := r.ReadBits(5)
	if err != nil {
		return nil, fmt.Errorf("spiht: empty stream: %w", err)
	}
	nbits := int(nbitsU)
	c := &codec{n: n, levels: levels, rw: n >> uint(levels)}
	c.val = make([]int32, n*n)
	c.sign = make([]bool, n*n)
	c.initLists()
	br := &budgetReader{r: r}
	for plane := nbits - 1; plane >= 0 && !br.done; plane-- {
		c.sortingPass(nil, br, int32(1)<<uint(plane))
		c.refinePassDec(br, uint(plane))
	}
	// Inverse: undo fixed point and band normalization, inverse transform.
	p := dwt.NewFPlane(n, n)
	for _, b := range dwt.Subbands(n, n, levels) {
		nw := dwt.BandNorm(dwt.Irr97, levels, b)
		for y := b.Y0; y < b.Y1; y++ {
			for x := b.X0; x < b.X1; x++ {
				i := y*n + x
				v := float64(c.val[i]) / (nw * scale)
				if c.sign[i] {
					v = -v
				}
				p.Data[y*p.Stride+x] = v
			}
		}
	}
	dwt.Inverse97(p, levels, dwt.Improved)
	im := raster.New(n, n)
	for y := 0; y < n; y++ {
		row := im.Row(y)
		src := p.Data[y*p.Stride:]
		for x := 0; x < n; x++ {
			v := math.Round(src[x] + 128)
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			row[x] = int32(v)
		}
	}
	return im, nil
}
