package dwt

import (
	"fmt"

	"pj2k/internal/core"
	"pj2k/internal/raster"
)

// VertMode selects the vertical filtering implementation under study.
type VertMode int

const (
	// VertNaive is the original reference-implementation strategy: each
	// image column is gathered, filtered and scattered one at a time. For
	// power-of-two widths every sample of a column lands in the same cache
	// set of a low-associativity cache (the paper's pathology).
	VertNaive VertMode = iota
	// VertBlocked is the paper's improved filtering: several adjacent
	// columns are filtered concurrently within a single processor, so each
	// loaded cache line is fully consumed.
	VertBlocked
)

func (m VertMode) String() string {
	switch m {
	case VertNaive:
		return "naive"
	case VertBlocked:
		return "blocked"
	}
	return fmt.Sprintf("VertMode(%d)", int(m))
}

// Strategy bundles the knobs the paper varies: the vertical filtering mode,
// its column-block width, and the number of parallel workers.
type Strategy struct {
	VertMode   VertMode
	BlockWidth int // columns per block for VertBlocked; <=0 selects 32
	Workers    int // <=0 selects GOMAXPROCS
	// Scratch supplies reusable per-worker filtering buffers, eliminating
	// the per-level allocations of the hot loops. Nil keeps the original
	// allocate-per-call behavior. Must be sized (NewScratch) for at least
	// this strategy's worker count.
	Scratch *Scratch
	// Pool supplies resident workers for the level barriers, so each level's
	// horizontal/vertical dispatch costs channel operations instead of
	// goroutine spawns. Nil dispatches on the shared core.Default pool. The
	// chunking is identical either way; Workers bounds the width in both.
	Pool *core.Pool
}

// forID runs one level barrier: fn over [0, n) in at most st.Workers chunks
// on the strategy's pool (or the shared default pool).
func (st Strategy) forID(n int, fn func(worker, lo, hi int)) {
	p := st.Pool
	if p == nil {
		p = core.Default()
	}
	p.ForIDMax(core.Workers(st.Workers), n, fn)
}

// DefaultBlockWidth is the column-block width used when Strategy.BlockWidth
// is unset; chosen by the ablation bench (8 int32 samples per 32-byte line,
// times a few lines of lookahead).
const DefaultBlockWidth = 32

func (st Strategy) blockWidth() int {
	if st.BlockWidth <= 0 {
		return DefaultBlockWidth
	}
	return st.BlockWidth
}

// Serial is the baseline strategy of the original reference implementations.
var Serial = Strategy{VertMode: VertNaive, Workers: 1}

// Improved is the paper's optimized serial strategy.
var Improved = Strategy{VertMode: VertBlocked, Workers: 1}

// levelDims returns the LL-region size after applying n halvings.
func levelDims(w, h, n int) (int, int) {
	for i := 0; i < n; i++ {
		w = (w + 1) / 2
		h = (h + 1) / 2
	}
	return w, h
}

// Forward53 applies `levels` levels of the reversible 5/3 transform in place.
// Subbands land in the Mallat layout described by Subbands.
func Forward53(im *raster.Image, levels int, st Strategy) {
	for l := 0; l < levels; l++ {
		cw, ch := levelDims(im.Width, im.Height, l)
		horizontalLevel53(im, cw, ch, st, true)
		verticalLevel53(im, cw, ch, st, true)
	}
}

// Inverse53 inverts Forward53.
func Inverse53(im *raster.Image, levels int, st Strategy) {
	for l := levels - 1; l >= 0; l-- {
		cw, ch := levelDims(im.Width, im.Height, l)
		verticalLevel53(im, cw, ch, st, false)
		horizontalLevel53(im, cw, ch, st, false)
	}
}

// horizontalLevel53 filters the rows of the cw x ch LL region.
func horizontalLevel53(im *raster.Image, cw, ch int, st Strategy, fwd bool) {
	if cw < 2 {
		return
	}
	st.forID(ch, func(worker, lo, hi int) {
		tmp := st.Scratch.i32(worker, 0, cw)
		for y := lo; y < hi; y++ {
			row := im.Pix[y*im.Stride : y*im.Stride+cw]
			if fwd {
				lift53Fwd(row)
				deinterleave53(row, tmp)
				copy(row, tmp)
			} else {
				interleave53(row, tmp)
				copy(row, tmp)
				lift53Inv(row)
			}
		}
	})
}

// verticalLevel53 filters the columns of the cw x ch LL region using the
// strategy's vertical mode.
func verticalLevel53(im *raster.Image, cw, ch int, st Strategy, fwd bool) {
	if ch < 2 {
		return
	}
	switch st.VertMode {
	case VertNaive:
		st.forID(cw, func(worker, lo, hi int) {
			col := st.Scratch.i32(worker, 0, ch)
			for x := lo; x < hi; x++ {
				// Gather the column with strided reads (the original
				// implementations' access pattern).
				for y := 0; y < ch; y++ {
					col[y] = im.Pix[y*im.Stride+x]
				}
				if fwd {
					lift53Fwd(col)
					sn := (ch + 1) / 2
					for i := 0; i < sn; i++ {
						im.Pix[i*im.Stride+x] = col[2*i]
					}
					for i := 0; i < ch/2; i++ {
						im.Pix[(sn+i)*im.Stride+x] = col[2*i+1]
					}
				} else {
					buf := st.Scratch.i32(worker, 1, ch)
					interleave53(col, buf)
					lift53Inv(buf)
					for y := 0; y < ch; y++ {
						im.Pix[y*im.Stride+x] = buf[y]
					}
				}
			}
		})
	case VertBlocked:
		// Block bi covers columns [bi*width, min((bi+1)*width, cw)): computed
		// arithmetically instead of materializing a range slice per level.
		width := st.blockWidth()
		nblocks := (cw + width - 1) / width
		bw := width
		if bw > cw {
			bw = cw
		}
		st.forID(nblocks, func(worker, lo, hi int) {
			tmp := st.Scratch.i32(worker, 0, bw*ch)
			for bi := lo; bi < hi; bi++ {
				x0 := bi * width
				x1 := min(x0+width, cw)
				if fwd {
					vertBlockFwd53(im, x0, x1, ch, tmp)
				} else {
					vertBlockInv53(im, x0, x1, ch, tmp)
				}
			}
		})
	default:
		panic("dwt: unknown vertical mode")
	}
}

// vertBlockFwd53 lifts the columns [x0,x1) over rows [0,ch) in place,
// sweeping row-wise so adjacent columns share cache lines, then deinterleaves
// the rows through tmp.
func vertBlockFwd53(im *raster.Image, x0, x1, ch int, tmp []int32) {
	pix, stride := im.Pix, im.Stride
	sn := (ch + 1) / 2
	dn := ch / 2
	// Predict: odd row 2i+1 -= (row 2i + row 2*min(i+1,sn-1)) >> 1.
	for i := 0; i < dn; i++ {
		rd := (2*i + 1) * stride
		rs0 := 2 * i * stride
		rs1 := 2 * clamp(i+1, sn) * stride
		for x := x0; x < x1; x++ {
			pix[rd+x] -= (pix[rs0+x] + pix[rs1+x]) >> 1
		}
	}
	// Update: even row 2i += (odd clamp(i-1) + odd clamp(i) + 2) >> 2.
	for i := 0; i < sn; i++ {
		rs := 2 * i * stride
		rd0 := (2*clamp(i-1, dn) + 1) * stride
		rd1 := (2*clamp(i, dn) + 1) * stride
		for x := x0; x < x1; x++ {
			pix[rs+x] += (pix[rd0+x] + pix[rd1+x] + 2) >> 2
		}
	}
	deinterleaveRows53(im, x0, x1, ch, tmp)
}

// vertBlockInv53 inverts vertBlockFwd53.
func vertBlockInv53(im *raster.Image, x0, x1, ch int, tmp []int32) {
	interleaveRows53(im, x0, x1, ch, tmp)
	pix, stride := im.Pix, im.Stride
	sn := (ch + 1) / 2
	dn := ch / 2
	for i := 0; i < sn; i++ {
		rs := 2 * i * stride
		rd0 := (2*clamp(i-1, dn) + 1) * stride
		rd1 := (2*clamp(i, dn) + 1) * stride
		for x := x0; x < x1; x++ {
			pix[rs+x] -= (pix[rd0+x] + pix[rd1+x] + 2) >> 2
		}
	}
	for i := 0; i < dn; i++ {
		rd := (2*i + 1) * stride
		rs0 := 2 * i * stride
		rs1 := 2 * clamp(i+1, sn) * stride
		for x := x0; x < x1; x++ {
			pix[rd+x] += (pix[rs0+x] + pix[rs1+x]) >> 1
		}
	}
}

// deinterleaveRows53 moves even rows to the top half and odd rows to the
// bottom half for columns [x0,x1), via tmp (size >= (x1-x0)*ch).
func deinterleaveRows53(im *raster.Image, x0, x1, ch int, tmp []int32) {
	w := x1 - x0
	sn := (ch + 1) / 2
	for i := 0; i < sn; i++ {
		copy(tmp[i*w:(i+1)*w], im.Pix[2*i*im.Stride+x0:2*i*im.Stride+x1])
	}
	for i := 0; i < ch/2; i++ {
		copy(tmp[(sn+i)*w:(sn+i+1)*w], im.Pix[(2*i+1)*im.Stride+x0:(2*i+1)*im.Stride+x1])
	}
	for y := 0; y < ch; y++ {
		copy(im.Pix[y*im.Stride+x0:y*im.Stride+x1], tmp[y*w:(y+1)*w])
	}
}

// interleaveRows53 is the inverse of deinterleaveRows53.
func interleaveRows53(im *raster.Image, x0, x1, ch int, tmp []int32) {
	w := x1 - x0
	sn := (ch + 1) / 2
	for y := 0; y < ch; y++ {
		copy(tmp[y*w:(y+1)*w], im.Pix[y*im.Stride+x0:y*im.Stride+x1])
	}
	for i := 0; i < sn; i++ {
		copy(im.Pix[2*i*im.Stride+x0:2*i*im.Stride+x1], tmp[i*w:(i+1)*w])
	}
	for i := 0; i < ch/2; i++ {
		copy(im.Pix[(2*i+1)*im.Stride+x0:(2*i+1)*im.Stride+x1], tmp[(sn+i)*w:(sn+i+1)*w])
	}
}
