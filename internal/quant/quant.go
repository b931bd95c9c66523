// Package quant implements the scalar deadzone quantizer of JPEG2000 for the
// irreversible (9/7) path, step-size marshalling in the standard's
// exponent/mantissa format, and the chunk-parallel quantization stage the
// paper reports a ~3.2x speedup for on 4 CPUs.
package quant

import (
	"math"

	"pj2k/internal/core"
	"pj2k/internal/dwt"
)

// Step describes one subband's quantizer step size in the QCD marker format:
// step = (1 + mantissa/2^11) * 2^(-exponent), relative to unit nominal range.
type Step struct {
	Exponent int // 0..31
	Mantissa int // 0..2047
}

// Value returns the step size the marker encodes. The float64() around the
// quotient keeps the compiler from fusing it with the addition (an FMA on
// arm64), so the step is the same on every architecture.
func (s Step) Value() float64 {
	return (1 + float64(float64(s.Mantissa)/2048)) * math.Pow(2, -float64(s.Exponent))
}

// stepFor quantizes a real-valued step into marker form (round to nearest
// representable), clamping into the representable range.
func stepFor(step float64) Step {
	if step <= 0 {
		return Step{Exponent: 31}
	}
	e := 0
	for step < 1 && e < 31 {
		step *= 2
		e++
	}
	// step in [1, 2) now (unless clamped).
	m := int(math.Round((step - 1) * 2048))
	if m > 2047 {
		m = 2047
	}
	if m < 0 {
		m = 0
	}
	return Step{Exponent: e, Mantissa: m}
}

// BandSteps derives per-band steps for the given kernel, decomposition level
// count and base step. The base step is divided by the band synthesis norm so
// quantization error is (approximately) equalized in the image domain — the
// standard practice the QCD default tables encode.
func BandSteps(k dwt.Kernel, w, h, levels int, base float64) []Step {
	bands := dwt.Subbands(w, h, levels)
	steps := make([]Step, len(bands))
	for i, b := range bands {
		steps[i] = stepFor(base / dwt.BandNorm(k, levels, b))
	}
	return steps
}

// forwardRows quantizes rows [lo, hi) of one band region into signed
// integers: q = sign(v) * floor(|v|/step).
func forwardRows(src []float64, stride int, b dwt.Subband, step float64, dst []int32, dstStride, lo, hi int) {
	inv := 1 / step
	for y := lo; y < hi; y++ {
		srow := src[(b.Y0+y)*stride+b.X0:]
		drow := dst[y*dstStride:]
		for x := 0; x < b.Width(); x++ {
			v := srow[x]
			if v >= 0 {
				drow[x] = int32(v * inv)
			} else {
				drow[x] = -int32(-v * inv)
			}
		}
	}
}

// BandJob describes one band's quantization for ForwardBands.
type BandJob struct {
	Band      dwt.Subband
	Step      float64
	Dst       []int32
	DstStride int
}

// ForwardBands quantizes several bands of one float plane under a single
// dispatch, splitting each band's rows as the paper's parallel quantization
// stage does ("every processor may have a chunk of coefficients"): every band contributes up to `workers` row chunks to one task
// set, staggered across workers like the tier-1 code-blocks, so the many
// small deep bands do not each pay their own dispatch. The task list is
// addressed arithmetically (task t is chunk t%p of band t/p), so dispatch
// does not allocate. Empty bands are skipped; the output is identical for
// any worker count. The tasks run on pool's
// resident workers (nil selects the shared core.Default pool).
func ForwardBands(src []float64, stride int, jobs []BandJob, workers int, pool *core.Pool) {
	if len(jobs) == 0 {
		return
	}
	if pool == nil {
		pool = core.Default()
	}
	p := core.Workers(workers)
	if p == 1 {
		// Serial: no fork/join helper, so no closure is built.
		for _, bj := range jobs {
			forwardRows(src, stride, bj.Band, bj.Step, bj.Dst, bj.DstStride, 0, bj.Band.Height())
		}
		return
	}
	pool.TasksIDMax(p, len(jobs)*p, func(_, t int) {
		bj := jobs[t/p]
		h := bj.Band.Height()
		pc := p
		if pc > h {
			pc = h
		}
		i := t % p
		if i >= pc { // band has fewer rows than workers: chunk is empty
			return
		}
		sz, rem := h/pc, h%pc
		lo := i*sz + min(i, rem)
		hi := lo + sz
		if i < rem {
			hi++
		}
		forwardRows(src, stride, bj.Band, bj.Step, bj.Dst, bj.DstStride, lo, hi)
	})
}

// Dequant reconstructs one float coefficient from its quantized value v: v
// plus the half-step midpoint bias, times step. The bias comes from v's sign
// (-1, 0 or +1) without a branch: +0.5 for v > 0, -0.5 for v < 0, and +0 for
// v == 0, so a zero is +0, not -0, for any positive step. Tier-1's block
// write-out calls it once per sample of a 9/7 block that decoded at least one
// pass, and once for a whole block that decoded none (every sample is then
// Dequant(0, step)).
func Dequant(v int32, step float64) float64 {
	sign := v>>31 | int32(uint32(-v)>>31)
	return (float64(v) + float64(0.5*float64(sign))) * step
}
