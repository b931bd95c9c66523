package quant

import (
	"math"
	"testing"
	"testing/quick"

	"pj2k/internal/dwt"
)

func TestStepMarshalling(t *testing.T) {
	for _, v := range []float64{1.0, 0.5, 0.25, 0.1, 0.003, 1.0 / 512, 1e-9} {
		s := stepFor(v)
		got := s.Value()
		if v >= math.Pow(2, -31) {
			if math.Abs(got-v)/v > 0.001 {
				t.Fatalf("step %g marshalled to %g (%.4f%% error)", v, got, 100*math.Abs(got-v)/v)
			}
		}
	}
}

func TestStepForClamps(t *testing.T) {
	if s := stepFor(0); s.Exponent != 31 {
		t.Fatalf("zero step: %+v", s)
	}
	if s := stepFor(1.9999); s.Value() > 2 {
		t.Fatalf("max mantissa step: %v", s.Value())
	}
}

func TestBandStepsEqualizeImageError(t *testing.T) {
	steps := BandSteps(dwt.Irr97, 256, 256, 3, 1.0/512)
	bands := dwt.Subbands(256, 256, 3)
	// step * norm must be ~constant across bands (equalized image-domain
	// error per unit quantization noise).
	ref := steps[0].Value() * dwt.BandNorm(dwt.Irr97, 3, bands[0])
	for i, b := range bands[1:] {
		got := steps[i+1].Value() * dwt.BandNorm(dwt.Irr97, 3, b)
		if math.Abs(got-ref)/ref > 0.01 {
			t.Fatalf("band %d: step*norm %g vs %g", i+1, got, ref)
		}
	}
	// Deeper (larger-norm) bands need smaller steps.
	if steps[0].Value() >= steps[len(steps)-1].Value() {
		t.Fatal("LL step should be smallest")
	}
}

func TestForwardInverseRoundTrip(t *testing.T) {
	b := dwt.Subband{Type: dwt.HL, Level: 1, X0: 4, Y0: 2, X1: 20, Y1: 14}
	stride := 32
	src := make([]float64, stride*16)
	for y := b.Y0; y < b.Y1; y++ {
		for x := b.X0; x < b.X1; x++ {
			src[y*stride+x] = float64((x*31+y*17)%200) - 100 + 0.37
		}
	}
	const step = 0.25
	q := make([]int32, b.Width()*b.Height())
	forward(src, stride, b, step, q, b.Width(), 1)
	back := make([]float64, stride*16)
	inverse(q, b.Width(), b, step, back, stride)
	for y := b.Y0; y < b.Y1; y++ {
		for x := b.X0; x < b.X1; x++ {
			diff := math.Abs(back[y*stride+x] - src[y*stride+x])
			if diff > step {
				t.Fatalf("(%d,%d): error %g exceeds step %g", x, y, diff, step)
			}
		}
	}
}

func TestDeadzoneSignSymmetry(t *testing.T) {
	b := dwt.Subband{X0: 0, Y0: 0, X1: 4, Y1: 1}
	src := []float64{1.7, -1.7, 0.3, -0.3}
	q := make([]int32, 4)
	forward(src, 4, b, 1.0, q, 4, 1)
	if q[0] != 1 || q[1] != -1 {
		t.Fatalf("q = %v; want sign-symmetric floor", q)
	}
	if q[2] != 0 || q[3] != 0 {
		t.Fatalf("deadzone: %v", q)
	}
}

func TestParallelQuantizationMatchesSerial(t *testing.T) {
	b := dwt.Subband{X0: 0, Y0: 0, X1: 64, Y1: 64}
	src := make([]float64, 64*64)
	for i := range src {
		src[i] = float64(i%513)*0.37 - 90
	}
	qs := make([]int32, 64*64)
	qp := make([]int32, 64*64)
	forward(src, 64, b, 0.1, qs, 64, 1)
	forward(src, 64, b, 0.1, qp, 64, 8)
	for i := range qs {
		if qs[i] != qp[i] {
			t.Fatalf("parallel quantization differs at %d", i)
		}
	}
}

func TestQuickQuantBounds(t *testing.T) {
	f := func(raw int16, stepSeed uint8) bool {
		step := 0.01 + float64(stepSeed)/64
		b := dwt.Subband{X0: 0, Y0: 0, X1: 1, Y1: 1}
		src := []float64{float64(raw) / 16}
		q := make([]int32, 1)
		forward(src, 1, b, step, q, 1, 1)
		back := make([]float64, 1)
		inverse(q, 1, b, step, back, 1)
		return math.Abs(back[0]-src[0]) <= step
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInverseMidpointMatchesBranches(t *testing.T) {
	// The branchless midpoint must give the bits the per-sign branches gave,
	// zero included (+0, not -0).
	vals := []int32{0, 1, -1, 2, -2, 7, -7, 1 << 20, -(1 << 20), math.MaxInt32, math.MinInt32}
	for _, step := range []float64{1, 0.37, 1.0 / 512, 1.9990234375} {
		dst := make([]float64, len(vals))
		inverse(vals, len(vals), dwt.Subband{X1: len(vals), Y1: 1}, step, dst, len(vals))
		for i, v := range vals {
			want := 0.0
			if v > 0 {
				want = (float64(v) + 0.5) * step
			} else if v < 0 {
				want = (float64(v) - 0.5) * step
			}
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("step %g: Inverse(%d) = %g (%#x), want %g (%#x)", step, v, dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
			}
		}
	}
}

// forward quantizes one band through ForwardBands.
func forward(src []float64, stride int, b dwt.Subband, step float64, dst []int32, dstStride, workers int) {
	ForwardBands(src, stride, []BandJob{{Band: b, Step: step, Dst: dst, DstStride: dstStride}}, workers, nil)
}

// inverse dequantizes one band sample by sample, as tier-1's into-plane
// decode does.
func inverse(src []int32, srcStride int, b dwt.Subband, step float64, dst []float64, stride int) {
	for y := 0; y < b.Height(); y++ {
		for x, v := range src[y*srcStride:][:b.Width()] {
			dst[(b.Y0+y)*stride+b.X0+x] = Dequant(v, step)
		}
	}
}
