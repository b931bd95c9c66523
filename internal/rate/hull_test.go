package rate

import (
	"math"
	"math/rand"
	"testing"
)

// hullOf runs the allocator's own hull construction over a pass list.
func hullOf(rates []int, deltas []float64) []rdPoint {
	var h Hull
	h.Reset()
	cum := 0.0
	for k := range rates {
		cum += deltas[k]
		h.Add(k+1, rates[k], cum)
	}
	return h.pts
}

// Fact (iii) of DESIGN.md §8. A block is coded for k passes; Certify names a
// hull vertex. Whatever comes next — any continuation whose rates are at least
// the floor and whose cumulative distortion never exceeds the bound, including
// new rates for the coded passes that already reached the floor — that vertex
// is a vertex of the completed hull, with the same predecessor, and every
// segment after it is flatter than its incoming slope. Zero-rate steps and
// negative deltas are in the mix, since slopeBetween answers +Inf for dr <= 0.
func TestSurvivingVertexSurvives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	certified := 0
	for trial := 0; trial < 20000; trial++ {
		k := 1 + rng.Intn(25)
		rates := make([]int, k)
		deltas := make([]float64, k)
		r, cum, peak := 0, 0.0, 0.0
		for i := range rates {
			if rng.Intn(5) > 0 {
				r += rng.Intn(40)
			}
			rates[i] = r
			deltas[i] = rng.Float64()*1000/float64(1+i) - 40
			cum += deltas[i]
			peak = math.Max(peak, cum)
		}
		bound := math.Max(peak, cum) * (1 + rng.Float64())
		if bound <= 0 {
			continue
		}
		floor := rng.Intn(r + 2)
		lambda := math.Inf(1)
		if rng.Intn(2) == 0 {
			lambda = rng.Float64() * 50
		}

		var h Hull
		h.Reset()
		c := 0.0
		for i := range rates {
			c += deltas[i]
			h.Add(i+1, rates[i], c)
		}
		wit := h.Certify(bound, floor, lambda)
		if wit == 0 {
			continue
		}
		certified++
		before := hullOf(rates, deltas)
		vi := -1
		for i, p := range before {
			if p.passes == wit {
				vi = i
			}
		}
		if vi < 1 || before[vi].rate >= floor {
			t.Fatalf("trial %d: witness %d is not a hull vertex below the floor %d", trial, wit, floor)
		}
		sIn := slopeBetween(before[vi-1], before[vi])
		if !(sIn < lambda) {
			t.Fatalf("trial %d: witness slope %v is not below lambda %v", trial, sIn, lambda)
		}

		for cont := 0; cont < 8; cont++ {
			// The completed run: coded passes below the floor keep their
			// rates; the others, and everything new, get any non-decreasing
			// rates at or above the floor. Distortion stays under the bound.
			n := k + rng.Intn(30)
			fr := make([]int, n)
			fd := make([]float64, n)
			cr, cc := floor, 0.0
			for i := 0; i < n; i++ {
				if i < k {
					fd[i] = deltas[i]
				} else {
					fd[i] = (bound-cc)*rng.Float64()*1.5 - rng.Float64()*30
					if cc+fd[i] > bound {
						fd[i] = bound - cc
					}
				}
				cc += fd[i]
				if i < k && rates[i] < floor {
					fr[i] = rates[i]
					continue
				}
				if rng.Intn(4) > 0 {
					cr += rng.Intn(60)
				}
				fr[i] = cr
			}
			after := hullOf(fr, fd)
			if len(after) <= vi || after[vi] != before[vi] || after[vi-1] != before[vi-1] {
				t.Fatalf("trial %d cont %d: certified vertex %+v (after %+v) did not survive:\nbefore %+v\nafter  %+v",
					trial, cont, before[vi], before[vi-1], before, after)
			}
			for i := vi + 1; i < len(after); i++ {
				if s := slopeBetween(after[i-1], after[i]); !(s < sIn) {
					t.Fatalf("trial %d cont %d: segment %d after the witness has slope %v, not below %v", trial, cont, i, s, sIn)
				}
			}
		}
	}
	if certified < 1000 {
		t.Fatalf("only %d of the trials certified a vertex; the property was barely exercised", certified)
	}
}

// CutoffSlope on the whole population with unit weights names the segment
// Allocate stops at; a budget that holds everything yields 0.
func TestCutoffSlopeMatchesAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	blocks := make([]BlockPasses, 30)
	ones := make([]float64, len(blocks))
	for i := range blocks {
		n := 1 + rng.Intn(12)
		r := 0
		for k := 0; k < n; k++ {
			r += 1 + rng.Intn(50)
			blocks[i].Rates = append(blocks[i].Rates, r)
			blocks[i].Dist = append(blocks[i].Dist, rng.Float64()*1000/float64(k+1))
		}
		ones[i] = 1
	}
	var a Allocator
	total := TotalBytes(blocks)
	if s := a.CutoffSlope(blocks, ones, total); s != 0 {
		t.Fatalf("non-binding budget: cut-off slope %v, want 0", s)
	}
	for _, budget := range []int{0, 50, total / 4, total / 2} {
		want := 0.0
		bytes := 0
		for _, sg := range a.sortedSegments(blocks) {
			if bytes+sg.bytes > budget {
				want = sg.slope
				break
			}
			bytes += sg.bytes
		}
		if got := a.CutoffSlope(blocks, ones, budget); got != want {
			t.Fatalf("budget %d: cut-off slope %v, want %v", budget, got, want)
		}
		if got := a.Allocate(blocks, []int{budget}).BodyBytes[0]; got != bytes {
			t.Fatalf("budget %d: Allocate took %d bytes, the greedy prefix holds %d", budget, got, bytes)
		}
	}
	// Doubling every weight is the population twice over: the cut-off can
	// only move to a steeper (earlier) segment.
	twos := make([]float64, len(blocks))
	for i := range twos {
		twos[i] = 2
	}
	if s1, s2 := a.CutoffSlope(blocks, ones, total/2), a.CutoffSlope(blocks, twos, total/2); s2 < s1 {
		t.Fatalf("doubled weights moved the cut-off from %v down to %v", s1, s2)
	}
}
