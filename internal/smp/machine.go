// Package smp is a deterministic shared-memory multiprocessor model used to
// regenerate the paper's speedup figures on hosts without the original
// hardware (this reproduction runs on a single-core machine; the paper used a
// 4-CPU Intel Pentium II Xeon SMP and a 20-CPU SGI Power Challenge).
//
// The model captures exactly the three mechanisms the paper's results hinge
// on:
//
//  1. work partitioning — static chunks for the transform, staggered
//     round-robin for code-blocks — giving near-linear CPU scaling;
//  2. the serial fraction (image/bitstream I/O, setup, rate allocation)
//     bounding overall speedup per Amdahl's law;
//  3. cache-miss traffic serialized on the shared front-side bus, which caps
//     the original vertical filter's parallel speedup ("the constrained
//     speedup of the original filtering routine is due to the congestion of
//     the bus caused by the high number of cache misses").
package smp

// Machine describes a simulated SMP.
type Machine struct {
	Name           string
	CPUs           int
	ClockHz        float64 // per-CPU clock
	OpsPerCycle    float64 // sustained ops per cycle per CPU
	MissPenaltyCyc float64 // stall cycles per cache miss (memory latency)
	BusBytesPerSec float64 // shared-bus bandwidth
	LineBytes      int
	BarrierCostSec float64 // per barrier (one per filtering direction per level)
}

// PentiumIIXeon models the paper's 4-way Compaq server: 500 MHz Pentium II
// Xeon. The miss penalty is the *effective average* L1-miss cost (most
// conflict misses hit the on-package L2), and the bus constant is calibrated
// so the model reproduces the paper's observations: the original vertical
// filter saturates below 2x on 4 CPUs while horizontal and improved
// filtering scale to ~3.7x (Fig. 8).
func PentiumIIXeon(cpus int) Machine {
	return Machine{
		Name:           "Intel Pentium II Xeon SMP, 500 MHz",
		CPUs:           cpus,
		ClockHz:        500e6,
		OpsPerCycle:    1.0,
		MissPenaltyCyc: 5.5,
		BusBytesPerSec: 4.6e9,
		LineBytes:      32,
		BarrierCostSec: 5e-6,
	}
}

// SGIPowerChallenge models the 20-CPU SGI Power Challenge: 194 MHz IP25
// processors — "very poor computation times when compared with the fast
// Intel processors" — with a wide system bus that lets the improved filter
// scale to 16 CPUs (Figs. 10-13) while the original filter still saturates.
func SGIPowerChallenge(cpus int) Machine {
	return Machine{
		Name:           "SGI Power Challenge, 194 MHz IP25",
		CPUs:           cpus,
		ClockHz:        194e6,
		OpsPerCycle:    0.8,
		MissPenaltyCyc: 8,
		BusBytesPerSec: 8e9,
		LineBytes:      32,
		BarrierCostSec: 20e-6,
	}
}

// Work is a quantity of computation with its memory behaviour.
type Work struct {
	Ops    float64 // arithmetic/logical operations
	Misses float64 // cache misses (from cachesim-driven analysis)
}

// Add accumulates w2 into w.
func (w *Work) Add(w2 Work) {
	w.Ops += w2.Ops
	w.Misses += w2.Misses
}

// SerialTime is the single-CPU execution time of w on m: ops at the CPU's
// sustained rate plus a stall per miss.
func (m Machine) SerialTime(w Work) float64 {
	cycles := w.Ops/m.OpsPerCycle + w.Misses*m.MissPenaltyCyc
	return cycles / m.ClockHz
}

// ParallelTime is the execution time of w split evenly across p CPUs with
// the shared bus serializing miss traffic: the stage takes at least the bus
// time regardless of CPU count (the paper's vertical-filtering congestion),
// and nbarriers synchronization barriers are added.
func (m Machine) ParallelTime(w Work, p, nbarriers int) float64 {
	if p < 1 {
		p = 1
	}
	if p > m.CPUs {
		p = m.CPUs
	}
	cpu := m.SerialTime(w) / float64(p)
	bus := w.Misses * float64(m.LineBytes) / m.BusBytesPerSec
	t := cpu
	if bus > t {
		t = bus
	}
	return t + float64(nbarriers)*m.BarrierCostSec
}
