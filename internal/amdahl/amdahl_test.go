package amdahl

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSpeedupBasics(t *testing.T) {
	pr := Profile{Sequential: 1, Parallel: 1}
	if got := pr.Speedup(1); got != 1 {
		t.Fatalf("speedup(1) = %v", got)
	}
	// 50% parallel on (nearly) infinite CPUs -> 2x.
	if got := pr.Speedup(1 << 40); math.Abs(got-2) > 1e-9 {
		t.Fatalf("speedup(2^40) = %v, want ~2", got)
	}
	if got := pr.Speedup(2); math.Abs(got-4.0/3) > 1e-12 {
		t.Fatalf("speedup(2) = %v, want 4/3", got)
	}
}

func TestPaperValues(t *testing.T) {
	// Sec. 3.4: ~40% intrinsically sequential after optimization gives a
	// theoretical bound around 2.4 on 4 CPUs... check the paper's numbers:
	// expected theoretical speedups of ~2.1 (Jasper) and ~1.95 (JJ2000) on
	// 4 CPUs correspond to parallel fractions of ~0.70 and ~0.65.
	jasper := Profile{Sequential: 0.30, Parallel: 0.70}
	if got := jasper.Speedup(4); math.Abs(got-2.105) > 0.02 {
		t.Fatalf("jasper-like profile speedup(4) = %.3f, want ~2.1", got)
	}
	jj := Profile{Sequential: 0.35, Parallel: 0.65}
	if got := jj.Speedup(4); math.Abs(got-1.95) > 0.03 {
		t.Fatalf("jj2000-like profile speedup(4) = %.3f, want ~1.95", got)
	}
}

func TestFullyParallel(t *testing.T) {
	pr := Profile{Sequential: 0, Parallel: 5}
	if got := pr.Speedup(8); math.Abs(got-8) > 1e-12 {
		t.Fatalf("fully parallel speedup(8) = %v", got)
	}
	if got := pr.Speedup(1 << 20); got != 1<<20 {
		t.Fatalf("fully parallel speedup(2^20) = %v, want unbounded growth", got)
	}
}

func TestDegenerate(t *testing.T) {
	var pr Profile
	if pr.Speedup(4) != 1 || pr.ParallelFraction() != 0 {
		t.Fatal("zero profile must be identity")
	}
	if (Profile{Sequential: 1}).Speedup(100) != 1 {
		t.Fatal("fully sequential cannot speed up")
	}
}

func TestQuickInvariants(t *testing.T) {
	f := func(s8, p8 uint8, n8 uint8) bool {
		pr := Profile{Sequential: float64(s8), Parallel: float64(p8)}
		n := 1 + int(n8%63)
		sp := pr.Speedup(n)
		// Bounds: 1 <= speedup <= min(n, (s+p)/s).
		if sp < 1-1e-12 {
			return false
		}
		if sp > float64(n)+1e-12 {
			return false
		}
		if s8 > 0 && sp > (pr.Sequential+pr.Parallel)/pr.Sequential+1e-9 {
			return false
		}
		// Monotone in n.
		return pr.Speedup(n+1) >= sp-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
