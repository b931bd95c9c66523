package rate

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHullMonotoneSlopes(t *testing.T) {
	b := BlockPasses{
		Rates: []int{10, 20, 30, 40, 50},
		Dist:  []float64{100, 50, 200, 10, 5},
	}
	var a Allocator
	a.hull(b, 0)
	segs := a.segs
	prev := segs[0].slope
	for _, s := range segs[1:] {
		if s.slope >= prev {
			t.Fatalf("hull slopes not strictly decreasing: %v then %v", prev, s.slope)
		}
		prev = s.slope
	}
	// Total bytes and distortion on the hull must end at the full point.
	last := segs[len(segs)-1]
	if last.passes != 5 {
		t.Fatalf("hull must end at the final pass, got pass %d", last.passes)
	}
}

func TestHullSkipsNegativeDeltas(t *testing.T) {
	b := BlockPasses{
		Rates: []int{10, 20, 30},
		Dist:  []float64{100, -5, 50},
	}
	var a Allocator
	a.hull(b, 0)
	segs := a.segs
	for _, s := range segs {
		if s.slope <= 0 {
			t.Fatalf("hull contains non-positive slope %v", s.slope)
		}
		if s.passes == 2 {
			t.Fatal("pass 2 (negative cumulative gain vs pass 1) must not be a truncation point")
		}
	}
}

func TestAllocateRespectsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	blocks := make([]BlockPasses, 20)
	for i := range blocks {
		n := 1 + rng.Intn(15)
		rates := make([]int, n)
		dist := make([]float64, n)
		r := 0
		for k := 0; k < n; k++ {
			r += 1 + rng.Intn(50)
			rates[k] = r
			dist[k] = rng.Float64() * 1000
		}
		blocks[i] = BlockPasses{Rates: rates, Dist: dist}
	}
	total := TotalBytes(blocks)
	for _, budget := range []int{0, total / 10, total / 3, total, total * 2} {
		alloc := new(Allocator).Allocate(blocks, []int{budget})
		if alloc.BodyBytes[0] > budget {
			t.Fatalf("budget %d exceeded: %d", budget, alloc.BodyBytes[0])
		}
		// Verify reported bytes match the pass selections.
		sum := 0
		for bi, np := range alloc.NPasses[0] {
			if np > 0 {
				sum += blocks[bi].Rates[np-1]
			}
		}
		if sum != alloc.BodyBytes[0] {
			t.Fatalf("budget %d: BodyBytes %d but selections cost %d", budget, alloc.BodyBytes[0], sum)
		}
	}
	// A generous budget must include every pass.
	alloc := new(Allocator).Allocate(blocks, []int{total * 2})
	for bi, np := range alloc.NPasses[0] {
		if np != len(blocks[bi].Rates) {
			t.Fatalf("block %d: %d of %d passes under unlimited budget", bi, np, len(blocks[bi].Rates))
		}
	}
}

func TestAllocateLayersCumulative(t *testing.T) {
	blocks := []BlockPasses{
		{Rates: []int{10, 30, 60}, Dist: []float64{300, 100, 30}},
		{Rates: []int{5, 25, 70}, Dist: []float64{500, 80, 10}},
	}
	alloc := new(Allocator).Allocate(blocks, []int{20, 60, 1000})
	for li := 1; li < 3; li++ {
		for bi := range blocks {
			if alloc.NPasses[li][bi] < alloc.NPasses[li-1][bi] {
				t.Fatalf("layer %d block %d passes decreased: %d -> %d",
					li, bi, alloc.NPasses[li-1][bi], alloc.NPasses[li][bi])
			}
		}
		if alloc.BodyBytes[li] < alloc.BodyBytes[li-1] {
			t.Fatal("cumulative bytes decreased across layers")
		}
	}
}

func TestAllocateGreedyOptimality(t *testing.T) {
	// Two blocks, clear priorities: the allocator must take the highest
	// slope segments first.
	blocks := []BlockPasses{
		{Rates: []int{10}, Dist: []float64{1000}}, // slope 100
		{Rates: []int{10}, Dist: []float64{10}},   // slope 1
	}
	alloc := new(Allocator).Allocate(blocks, []int{10})
	if alloc.NPasses[0][0] != 1 || alloc.NPasses[0][1] != 0 {
		t.Fatalf("allocator picked wrong block: %v", alloc.NPasses[0])
	}
}

func TestZeroBlocks(t *testing.T) {
	alloc := new(Allocator).Allocate([]BlockPasses{{}, {}}, []int{100})
	if alloc.BodyBytes[0] != 0 {
		t.Fatal("empty blocks produced bytes")
	}
	if TotalBytes([]BlockPasses{{}}) != 0 {
		t.Fatal("TotalBytes of empty block")
	}
}

func TestQuickAllocationInvariants(t *testing.T) {
	f := func(seed int64, budget16 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		nb := 1 + rng.Intn(10)
		blocks := make([]BlockPasses, nb)
		for i := range blocks {
			n := rng.Intn(10)
			r := 0
			for k := 0; k < n; k++ {
				r += 1 + rng.Intn(30)
				blocks[i].Rates = append(blocks[i].Rates, r)
				blocks[i].Dist = append(blocks[i].Dist, rng.Float64()*100-5)
			}
		}
		budget := int(budget16) % 1000
		alloc := new(Allocator).Allocate(blocks, []int{budget})
		if alloc.BodyBytes[0] > budget {
			return false
		}
		for bi, np := range alloc.NPasses[0] {
			if np < 0 || np > len(blocks[bi].Rates) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
