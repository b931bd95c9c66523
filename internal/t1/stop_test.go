package t1

import (
	"bytes"
	"math"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/rate"
)

// stopModes are the mode sets the stop rule covers (everything but Bypass
// without TermAll, where EncodeStop never stops), one per structural case:
// single MQ segment, terminated MQ passes, terminated raw passes, per-pass
// context reset with causal contexts, segmentation symbols.
var stopModes = []Modes{
	{},
	{Bypass: true, TermAll: true},
	{Causal: true, ResetCtx: true},
	{SegSym: true},
	{TermAll: true},
}

// stopBlock is one code-block of the stop-rule corpus.
type stopBlock struct {
	w, h int
	data []int32
}

// stopCorpus is a small set of blocks: dense and sparse, shallow and deep,
// full-size and ragged.
func stopCorpus() []stopBlock {
	var out []stopBlock
	for i, g := range []struct {
		w, h    int
		maxMag  int32
		density float64
	}{
		{64, 64, 3000, 0.6}, {64, 64, 40, 0.1}, {32, 32, 30000, 0.9},
		{13, 7, 500, 0.5}, {5, 64, 100000, 0.3}, {16, 16, 7, 1.0},
	} {
		out = append(out, stopBlock{g.w, g.h, randBlock(g.w, g.h, g.maxMag, g.density, int64(100+i))})
	}
	return out
}

// Fact (i) of DESIGN.md §8: the pass distortions telescope. Over a fully
// coded block they sum to the block's energy exactly, and no prefix of the sum
// is larger — each sample contributes v² minus its current squared
// reconstruction error.
func TestDistortionTelescopes(t *testing.T) {
	modes := []Modes{{}, {Bypass: true, TermAll: true}, {Causal: true, ResetCtx: true}, {SegSym: true}}
	co := NewCoder()
	for _, m := range modes {
		co.Modes = m
		for seed := int64(0); seed < 50; seed++ {
			w, h := 1+int(seed*7%64), 1+int(seed*13%64)
			data := randBlock(w, h, 1<<(2+uint(seed%14)), 0.1+float64(seed%9)/10, seed)
			var energy float64
			for _, v := range data {
				energy += float64(v) * float64(v)
			}
			eb := co.Encode(data, w, h, w, bandTypes[seed%int64(len(bandTypes))])
			sum := 0.0
			for k, p := range eb.Passes {
				sum += p.DistDelta
				if sum > energy {
					t.Fatalf("%s seed %d: prefix through pass %d sums to %v, above the energy %v", modeName(m), seed, k+1, sum, energy)
				}
			}
			if sum != energy {
				t.Fatalf("%s seed %d: distortion deltas sum to %v, energy is %v", modeName(m), seed, sum, energy)
			}
			co.Release()
		}
	}
}

// Fact (ii): a block stopped after k passes is a prefix of the fully coded
// block up to its stable byte count — the bytes, and every pass record whose
// rate does not reach past them — and no later pass of the full block has a
// rate below that count.
func TestStoppedEncodeIsPrefix(t *testing.T) {
	full, cut := NewCoder(), NewCoder()
	for _, m := range stopModes {
		full.Modes, cut.Modes = m, m
		for bi, blk := range stopCorpus() {
			band := bandTypes[bi%len(bandTypes)]
			fb := full.Encode(blk.data, blk.w, blk.h, blk.w, band)
			total := len(fb.Passes)
			for k := 1; k < total; k++ {
				sb := cut.encode(blk.data, blk.w, blk.h, blk.w, band, stopRule{at: k})
				if len(sb.Passes) != k || sb.NumBitplanes != fb.NumBitplanes {
					t.Fatalf("%s block %d: stop at %d gave %d passes, %d/%d bit-planes", modeName(m), bi, k, len(sb.Passes), sb.NumBitplanes, fb.NumBitplanes)
				}
				stable := len(sb.Data)
				if stable > len(fb.Data) || !bytes.Equal(sb.Data, fb.Data[:stable]) {
					t.Fatalf("%s block %d stop %d: the %d stable bytes are not a prefix of the full block's %d", modeName(m), bi, k, stable, len(fb.Data))
				}
				for j := 0; j < k; j++ {
					sp, fp := sb.Passes[j], fb.Passes[j]
					if sp.DistDelta != fp.DistDelta {
						t.Fatalf("%s block %d stop %d: pass %d DistDelta %v, full %v", modeName(m), bi, k, j, sp.DistDelta, fp.DistDelta)
					}
					if (fp.Rate <= stable || sp.Rate < stable) && sp.Rate != fp.Rate {
						t.Fatalf("%s block %d stop %d: pass %d rate %d, full %d, both should be final at the stable count %d", modeName(m), bi, k, j, sp.Rate, fp.Rate, stable)
					}
				}
				for j := k; j < total; j++ {
					if fb.Passes[j].Rate < stable {
						t.Fatalf("%s block %d stop %d: later pass %d has rate %d below the stable count %d", modeName(m), bi, k, j, fb.Passes[j].Rate, stable)
					}
				}
				cut.Release()
			}
			full.Release()
		}
	}
}

// allocPasses is what PCRD takes of one block under a byte budget.
func allocPasses(eb *EncodedBlock, weight float64, budget int) int {
	bp := rate.BlockPasses{}
	for _, p := range eb.Passes {
		bp.Rates = append(bp.Rates, p.Rate)
		bp.Dist = append(bp.Dist, p.DistDelta*weight)
	}
	return new(rate.Allocator).Allocate([]rate.BlockPasses{bp}, []int{budget}).NPasses[0][0]
}

// The contract of EncodeStop as the encoder uses it: whenever the allocator
// takes fewer than Witness passes of the stopped block, it takes exactly the
// same passes of the fully coded block, and the bytes behind them are equal.
func TestStoppedBlockAllocatesLikeFull(t *testing.T) {
	full, cut := NewCoder(), NewCoder()
	stops := 0
	for _, m := range stopModes {
		full.Modes, cut.Modes = m, m
		for bi, blk := range stopCorpus() {
			band := bandTypes[bi%len(bandTypes)]
			fb := full.Encode(blk.data, blk.w, blk.h, blk.w, band)
			for _, weight := range []float64{1, 3.7e-4} {
				// Thresholds from "stop as soon as anything certifies" down to
				// slopes only the last bit-planes reach.
				for _, lambda := range []float64{math.Inf(1), 1e4 * weight, 10 * weight, 0.05 * weight} {
					sb := cut.EncodeStop(blk.data, blk.w, blk.h, blk.w, band, weight, lambda)
					if sb.Witness == 0 {
						if len(sb.Passes) != len(fb.Passes) || !bytes.Equal(sb.Data, fb.Data) {
							t.Fatalf("%s block %d: unstopped EncodeStop differs from Encode", modeName(m), bi)
						}
						continue
					}
					stops++
					if len(sb.Passes) >= len(fb.Passes) {
						t.Fatalf("%s block %d: stopped block has all %d passes", modeName(m), bi, len(sb.Passes))
					}
					for budget := 0; budget <= len(sb.Data)+8; budget += 1 + budget/16 {
						np := allocPasses(sb, weight, budget)
						if np >= sb.Witness {
							continue // the encoder re-codes this block
						}
						if nf := allocPasses(fb, weight, budget); nf != np {
							t.Fatalf("%s block %d lambda %g budget %d: stopped block (witness %d, %d passes) allocates %d passes, full block %d",
								modeName(m), bi, lambda, budget, sb.Witness, len(sb.Passes), np, nf)
						}
						if np > 0 {
							r := sb.Passes[np-1].Rate
							if r != fb.Passes[np-1].Rate || !bytes.Equal(sb.Data[:r], fb.Data[:r]) {
								t.Fatalf("%s block %d lambda %g budget %d: bytes behind %d passes differ", modeName(m), bi, lambda, budget, np)
							}
						}
					}
				}
			}
			cut.Release()
			full.Release()
		}
	}
	if stops == 0 {
		t.Fatal("the stop rule never fired; the test checked nothing")
	}
}

// Under Bypass without TermAll truncation points are restricted to segment
// ends and the rule is not proven; EncodeStop must then be Encode.
func TestEncodeStopNeverFiresUnderLazyBypass(t *testing.T) {
	full, cut := NewCoder(), NewCoder()
	for _, m := range []Modes{{Bypass: true}, {Bypass: true, Causal: true, SegSym: true}} {
		full.Modes, cut.Modes = m, m
		for bi, blk := range stopCorpus() {
			fb := full.Encode(blk.data, blk.w, blk.h, blk.w, dwt.HH)
			sb := cut.EncodeStop(blk.data, blk.w, blk.h, blk.w, dwt.HH, 1, math.Inf(1))
			if sb.Witness != 0 || len(sb.Passes) != len(fb.Passes) || !bytes.Equal(sb.Data, fb.Data) {
				t.Fatalf("%s block %d: EncodeStop stopped or changed the block", modeName(m), bi)
			}
		}
	}
}
