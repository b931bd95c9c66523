package dwt

import (
	"fmt"
	"time"

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
	// the per-level allocations of the hot loops; it grows to this
	// strategy's worker count on first use. Nil keeps the original
	// allocate-per-call behavior.
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
	run(imagePlane(im), levels, st, &rev53, true, nil)
}

// Inverse53 inverts Forward53.
func Inverse53(im *raster.Image, levels int, st Strategy) {
	run(imagePlane(im), levels, st, &rev53, false, nil)
}

// sample is the element type of a transformed plane: int32 for the
// reversible path, float64 for the irreversible one.
type sample interface{ int32 | float64 }

// plane is a strided view of a sample plane; the transform touches only its
// width x height window, so a stride wider than the width (the paper's width
// padding) changes where rows start, not what is computed.
type plane[T sample] struct {
	pix                   []T
	width, height, stride int
}

// imagePlane views im as a transform plane.
func imagePlane(im *raster.Image) plane[int32] {
	return plane[int32]{im.Pix, im.Width, im.Height, im.Stride}
}

// filter is one wavelet's lifting kernels, the only code that differs per
// filter: the 1-D lifts over an interleaved contiguous signal (rows, and the
// naive filter's gathered columns) and the column-block lifts over rows
// [0,ch) of columns [x0,x1) in place (the blocked vertical filter).
type filter[T sample] struct {
	fwd, inv         func(buf []T)
	fwdCols, invCols func(pix []T, stride, x0, x1, ch int)
}

// run is the one level loop behind every transform: forward levels run
// shallowest first, rows then columns; inverse levels undo them deepest first,
// columns then rows. With tm set it adds each direction's time to tm.
func run[T sample](p plane[T], levels int, st Strategy, f *filter[T], fwd bool, tm *Timings) {
	st.Scratch.grow(core.Workers(st.Workers))
	passes := [2]bool{false, true} // vertical?
	if !fwd {
		passes = [2]bool{true, false}
	}
	for i := 0; i < levels; i++ {
		l := i
		if !fwd {
			l = levels - 1 - i
		}
		cw, ch := levelDims(p.width, p.height, l)
		for _, vert := range passes {
			var t0 time.Time
			if tm != nil {
				t0 = time.Now()
			}
			if vert {
				vertical(p, cw, ch, st, f, fwd)
			} else {
				horizontal(p, cw, ch, st, f, fwd)
			}
			if tm != nil {
				d := &tm.Horizontal
				if vert {
					d = &tm.Vertical
				}
				*d += time.Since(t0)
			}
		}
	}
}

// horizontal filters the rows of the cw x ch LL region.
func horizontal[T sample](p plane[T], cw, ch int, st Strategy, f *filter[T], fwd bool) {
	if cw < 2 {
		return
	}
	st.forID(ch, func(worker, lo, hi int) {
		tmp := buffer[T](st.Scratch, worker, cw)
		for y := lo; y < hi; y++ {
			row := p.pix[y*p.stride : y*p.stride+cw]
			if fwd {
				f.fwd(row)
				deinterleave(row, tmp, 1)
				copy(row, tmp)
			} else {
				interleave(row, 1, tmp)
				copy(row, tmp)
				f.inv(row)
			}
		}
	})
}

// vertical filters the columns of the cw x ch LL region using the
// strategy's vertical mode.
func vertical[T sample](p plane[T], cw, ch int, st Strategy, f *filter[T], fwd bool) {
	if ch < 2 {
		return
	}
	switch st.VertMode {
	case VertNaive:
		st.forID(cw, func(worker, lo, hi int) {
			col := buffer[T](st.Scratch, worker, ch)
			for x := lo; x < hi; x++ {
				// One column at a time with strided reads and writes (the
				// original implementations' access pattern).
				if fwd {
					for y := range col {
						col[y] = p.pix[y*p.stride+x]
					}
					f.fwd(col)
					deinterleave(col, p.pix[x:], p.stride)
				} else {
					interleave(p.pix[x:], p.stride, col)
					f.inv(col)
					for y, v := range col {
						p.pix[y*p.stride+x] = v
					}
				}
			}
		})
	case VertBlocked:
		// Block bi covers columns [bi*width, min((bi+1)*width, cw)): computed
		// arithmetically instead of materializing a range slice per level.
		width := st.blockWidth()
		st.forID((cw+width-1)/width, func(worker, lo, hi int) {
			tmp := buffer[T](st.Scratch, worker, min(width, cw)*ch)
			for bi := lo; bi < hi; bi++ {
				x0 := bi * width
				x1 := min(x0+width, cw)
				if fwd {
					f.fwdCols(p.pix, p.stride, x0, x1, ch)
					deinterleaveRows(p, x0, x1, ch, tmp)
				} else {
					interleaveRows(p, x0, x1, ch, tmp)
					f.invCols(p.pix, p.stride, x0, x1, ch)
				}
			}
		})
	default:
		panic("dwt: unknown vertical mode")
	}
}

// deinterleave moves the interleaved signal src into dst[0], dst[stride],
// ...: its even (lowpass) samples first, then its odd (highpass) ones.
func deinterleave[T sample](src, dst []T, stride int) {
	j := 0
	for i0 := 0; i0 < 2; i0++ {
		for i := i0; i < len(src); i += 2 {
			dst[j] = src[i]
			j += stride
		}
	}
}

// interleave is the inverse of deinterleave: it fills dst from src[0],
// src[stride], ....
func interleave[T sample](src []T, stride int, dst []T) {
	j := 0
	for i0 := 0; i0 < 2; i0++ {
		for i := i0; i < len(dst); i += 2 {
			dst[i] = src[j]
			j += stride
		}
	}
}

// deinterleaveRows moves even rows to the top half and odd rows to the
// bottom half for columns [x0,x1), via tmp (size >= (x1-x0)*ch).
func deinterleaveRows[T sample](p plane[T], x0, x1, ch int, tmp []T) {
	w, t := x1-x0, 0
	for y0 := 0; y0 < 2; y0++ {
		for y := y0; y < ch; y += 2 {
			copy(tmp[t:t+w], p.pix[y*p.stride+x0:])
			t += w
		}
	}
	for y := 0; y < ch; y++ {
		copy(p.pix[y*p.stride+x0:y*p.stride+x1], tmp[y*w:])
	}
}

// interleaveRows is the inverse of deinterleaveRows.
func interleaveRows[T sample](p plane[T], x0, x1, ch int, tmp []T) {
	w, t := x1-x0, 0
	for y := 0; y < ch; y++ {
		copy(tmp[y*w:(y+1)*w], p.pix[y*p.stride+x0:])
	}
	for y0 := 0; y0 < 2; y0++ {
		for y := y0; y < ch; y += 2 {
			copy(p.pix[y*p.stride+x0:y*p.stride+x1], tmp[t:])
			t += w
		}
	}
}
