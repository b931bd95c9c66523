package jp2k

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"pj2k/internal/core"
	"pj2k/internal/raster"
)

// span is the address range of one worker's block state: everything that
// worker writes at symbol rate. The t1.Coder (with its mq.Encoder,
// bitio.StuffWriter and contexts), the rate.Allocator, the t2Scratch headers
// and the t1.BlockDecoder (mq.Decoder, contexts, raw readers) are fields held
// by value — t1's TestPerWorkerStateHeldByValue pins the inner half of that —
// so the state's extent covers them all.
type span struct {
	owner  string
	lo, hi uintptr // [lo, hi)
}

// sharesLine reports whether the two ranges touch a common
// core.CacheLinePad-aligned line.
func (s span) sharesLine(o span) bool {
	const pad = core.CacheLinePad
	return s.lo/pad <= (o.hi-1)/pad && o.lo/pad <= (s.hi-1)/pad
}

func stateSpans(enc *Encoder, dec *Decoder) []span {
	var out []span
	for i, w := range enc.workers {
		lo := uintptr(unsafe.Pointer(&w.encWorkerState))
		out = append(out, span{fmt.Sprintf("encode worker %d", i), lo, lo + unsafe.Sizeof(w.encWorkerState)})
	}
	for i, w := range dec.workers {
		lo := uintptr(unsafe.Pointer(&w.decWorkerState))
		out = append(out, span{fmt.Sprintf("decode worker %d", i), lo, lo + unsafe.Sizeof(w.decWorkerState)})
	}
	return out
}

// TestPerWorkerStateOwnsItsLines is the fence around DESIGN.md §7: no two
// workers' hot state may touch the same core.CacheLinePad line, wherever the
// allocator puts the blocks. It builds the codecs the way the benchmark
// harness does — on one shared pool under GOMAXPROCS(1), so every block is
// carved back to back out of one allocator cache, the worst case — and checks
// addresses only, so it is exact on any machine.
func TestPerWorkerStateOwnsItsLines(t *testing.T) {
	const pad = core.CacheLinePad
	var ew encWorker
	var dw decWorker
	for _, b := range []struct {
		name              string
		size, head, state uintptr
	}{
		{"encWorker", unsafe.Sizeof(ew), unsafe.Offsetof(ew.encWorkerState), unsafe.Sizeof(ew.encWorkerState)},
		{"decWorker", unsafe.Sizeof(dw), unsafe.Offsetof(dw.decWorkerState), unsafe.Sizeof(dw.decWorkerState)},
	} {
		if b.size%pad != 0 {
			t.Errorf("%s is %d bytes, not a multiple of %d", b.name, b.size, pad)
		}
		if tail := b.size - b.head - b.state; b.head < pad || tail < pad {
			t.Errorf("%s pads its state by %d bytes before and %d after, want >= %d on both sides", b.name, b.head, tail, pad)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pool := core.NewPool(8)
	defer pool.Close()
	enc, dec := NewEncoderWithPool(pool), NewDecoderWithPool(pool)
	defer enc.Close()
	defer dec.Close()
	im := raster.Synthetic(256, 192, 5)
	for _, coder := range []CoderOptions{{}, {Bypass: true, TermAll: true}} {
		for _, workers := range []int{2, 4, 8} {
			cs, _, err := enc.Encode(im, Options{Workers: workers, Coder: coder})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dec.Decode(cs, DecodeOptions{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			if len(enc.workers) < workers || len(dec.workers) < workers {
				t.Fatalf("Workers=%d primed %d encode and %d decode blocks", workers, len(enc.workers), len(dec.workers))
			}
			spans := stateSpans(enc, dec)
			for i, a := range spans {
				for _, b := range spans[i+1:] {
					if a.sharesLine(b) {
						t.Errorf("Workers=%d coder=%+v: the state of %s [%#x,%#x) and of %s [%#x,%#x) share a %d-byte line",
							workers, coder, a.owner, a.lo, a.hi, b.owner, b.lo, b.hi, pad)
					}
				}
			}
		}
	}
}
