package dwt

import (
	"fmt"
	"time"

	"pj2k/internal/core"
	"pj2k/internal/raster"
)

// VertMode selects the vertical filtering implementation under study. The
// zero value is the paper's improved filter, so a zero Strategy (and the
// codec's zero options) runs the fast one; the naive filter is reached only by
// name. The two are bit-identical.
type VertMode int

const (
	// VertBlocked is the paper's improved filtering: several adjacent
	// columns are filtered concurrently within a single processor, so each
	// loaded cache line is fully consumed.
	VertBlocked VertMode = iota
	// VertNaive is the original reference-implementation strategy: each
	// image column is gathered, filtered and scattered one at a time. For
	// power-of-two widths every sample of a column lands in the same cache
	// set of a low-associativity cache (the paper's pathology).
	VertNaive
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
	BlockWidth int // columns per block for VertBlocked; <=0 selects DefaultBlockWidth
	Workers    int // <=0 selects GOMAXPROCS
	// Scratch supplies reusable per-worker filtering buffers and the bound
	// level jobs, so a warm transform allocates nothing; it grows to this
	// strategy's worker count on first use. Nil gives each transform a
	// throwaway Scratch, allocated and warmed again on every call.
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
// is unset, picked from BenchmarkAblation_BlockWidth with the one-sweep
// kernels: 64 beats 32 for both sample widths and both directions; 128 gains
// a little more on 9/7 but leaves a 128-wide tile a single block per level.
const DefaultBlockWidth = 64

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
// filter: the 1-D kernels between a contiguous scratch copy src and its
// output dst (rows, and the naive filter's gathered columns), and the lane
// kernels over a column block (the blocked vertical filter). Forward kernels
// read the interleaved signal and write lows then highs; inverse kernels do
// the reverse.
type filter[T sample] struct {
	fwd, inv         func(dst, src []T)
	fwdCols, invCols func(l lanes[T], n int)
}

// run is the one level loop behind every transform: forward levels run
// shallowest first, rows then columns; inverse levels undo them deepest first,
// columns then rows. With tm set it adds each direction's time to tm. The
// level barriers dispatch the Scratch's bound level jobs (a nil Scratch gets
// a throwaway one for this call), so no level allocates a closure.
func run[T sample](p plane[T], levels int, st Strategy, f *filter[T], fwd bool, tm *Timings) {
	j := startLevels(p, st, f, fwd)
	passes := [2]bool{true, false} // vertical?
	if fwd {
		passes = [2]bool{false, true}
	}
	for i := 0; i < levels; i++ {
		l := i
		if !fwd {
			l = levels - 1 - i
		}
		j.cw, j.ch = levelDims(p.width, p.height, l)
		for _, vert := range passes {
			var t0 time.Time
			if tm != nil {
				t0 = time.Now()
			}
			if vert {
				j.vertical()
			} else {
				j.horizontal()
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
	j.st, j.p = Strategy{}, plane[T]{} // pin neither the caller's plane nor its pool
}

// startLevels points the strategy's Scratch level job (a throwaway Scratch
// when it has none) at p and the direction's kernels of f.
func startLevels[T sample](p plane[T], st Strategy, f *filter[T], fwd bool) *levelJob[T] {
	s := st.Scratch
	if s == nil {
		s = new(Scratch)
	}
	s.grow(core.Workers(st.Workers))
	j := levelJobOf[T](s)
	j.st, j.p = st, p
	j.line, j.cols = f.inv, f.invCols
	if fwd {
		j.line, j.cols = f.fwd, f.fwdCols
	}
	return j
}

// horizontal filters the rows of the cw x ch LL region.
func (j *levelJob[T]) horizontal() {
	if j.cw >= 2 {
		j.st.forID(j.ch, j.rowsFn)
	}
}

// rows is the horizontal level job: each row is copied to scratch and lifted
// back into place in one sweep.
func (j *levelJob[T]) rows(worker, lo, hi int) {
	p, cw, kernel := j.p, j.cw, j.line
	tmp := buffer[T](j.s, worker, cw)
	for y := lo; y < hi; y++ {
		row := p.pix[y*p.stride : y*p.stride+cw]
		copy(tmp, row)
		kernel(row, tmp)
	}
}

// vertical filters the columns of the cw x ch LL region using the
// strategy's vertical mode.
func (j *levelJob[T]) vertical() {
	if j.ch < 2 {
		return
	}
	switch j.st.VertMode {
	case VertNaive:
		j.st.forID(j.cw, j.naiveFn)
	case VertBlocked:
		width := j.st.blockWidth()
		j.st.forID((j.cw+width-1)/width, j.blocksFn)
	default:
		panic("dwt: unknown vertical mode")
	}
}

// naive is the VertNaive level job: one column at a time with strided reads
// and writes (the original implementations' access pattern).
func (j *levelJob[T]) naive(worker, lo, hi int) {
	p, ch, kernel := j.p, j.ch, j.line
	buf := buffer[T](j.s, worker, 2*ch)
	col, out := buf[:ch], buf[ch:]
	for x := lo; x < hi; x++ {
		for y := range col {
			col[y] = p.pix[y*p.stride+x]
		}
		kernel(out, col)
		for y, v := range out {
			p.pix[y*p.stride+x] = v
		}
	}
}

// blocks is the VertBlocked level job. Block bi covers columns
// [bi*width, min((bi+1)*width, cw)): computed arithmetically instead of
// materializing a range slice per level. The block is copied to packed
// scratch rows and lifted back into the plane in one sweep.
func (j *levelJob[T]) blocks(worker, lo, hi int) {
	p, cw, ch, kernel := j.p, j.cw, j.ch, j.cols
	width := j.st.blockWidth()
	tmp := buffer[T](j.s, worker, min(width, cw)*ch)
	for bi := lo; bi < hi; bi++ {
		x0 := bi * width
		w := min(x0+width, cw) - x0
		for y := 0; y < ch; y++ {
			copy(tmp[y*w:(y+1)*w], p.pix[y*p.stride+x0:])
		}
		kernel(lanes[T]{dst: p.pix[x0:], src: tmp, ds: p.stride, ss: w, w: w}, ch)
	}
}
