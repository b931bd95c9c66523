package jp2k

import (
	"unsafe"

	"pj2k/internal/core"
	"pj2k/internal/dwt"
	"pj2k/internal/rate"
	"pj2k/internal/t1"
)

// Per-worker state (DESIGN.md §7). Everything a worker writes while a stage
// runs lives in one block per worker: the block is allocated on its own and
// its head and tail are padded by core.CacheLinePad, so whatever the allocator
// places before or after it — another worker's block included — is at least a
// full line pair away from the state inside. The small structs written at
// symbol rate (the tier-1 coder with its MQ registers, contexts and raw
// writer; the PCRD scratch headers) are held by value; only big buffers hang
// off the block by pointer or slice. TestPerWorkerStateOwnsItsLines pins the
// placement.

// encWorkerState is what one encode worker owns.
type encWorkerState struct {
	coder  t1.Coder       // tier-1 block coder
	ralloc rate.Allocator // PCRD hull/segment scratch
	t2     t2Scratch      // tier-2 per-component views and byte accumulator
	// tier-1 work counters of this worker's blocks, reduced after the barrier
	passesCoded   int
	blocksStopped int
	scratch       dwt.Scratch // DWT line buffers; the transform grows a slot per inner worker
}

// decWorkerState is what one decode worker owns.
type decWorkerState struct {
	bd      t1.BlockDecoder // tier-1 block decoder
	scratch dwt.Scratch     // inverse-DWT line buffers; the transform grows a slot per inner worker
}

// Tail pads: one full pad plus whatever rounds the block up to a whole number
// of pads, so every block sits the same way relative to line boundaries
// however blocks come to be laid out (the separation itself needs only the
// two pads: the allocator promises 8-byte alignment and nothing more).
const (
	encTailPad = core.CacheLinePad + (core.CacheLinePad-unsafe.Sizeof(encWorkerState{})%core.CacheLinePad)%core.CacheLinePad
	decTailPad = core.CacheLinePad + (core.CacheLinePad-unsafe.Sizeof(decWorkerState{})%core.CacheLinePad)%core.CacheLinePad
)

type encWorker struct {
	_ [core.CacheLinePad]byte
	encWorkerState
	_ [encTailPad]byte
}

type decWorker struct {
	_ [core.CacheLinePad]byte
	decWorkerState
	_ [decTailPad]byte
}

// t2Scratch is the per-worker scratch of the parallel tier-2 stage: the
// per-component layer views a tile's packet assembly needs, plus a per-worker
// byte accumulator summed (in worker order) after the dispatch — so the stage
// writes no shared state and allocates nothing once warm.
type t2Scratch struct {
	compLayers [][][]int
	compBytes  []int
}

// size fits the views to the current component/layer shape. The backing
// arrays are a few words per component, written once per tile (the views) or
// once per packet (compBytes) — too rarely to need lines of their own.
func (sc *t2Scratch) size(ncomp, nlayers int) {
	sc.compLayers = grow(sc.compLayers, ncomp)
	for ci := range sc.compLayers {
		sc.compLayers[ci] = grow(sc.compLayers[ci], nlayers)
	}
	sc.compBytes = grow(sc.compBytes, ncomp)
}
