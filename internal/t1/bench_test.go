package t1

import (
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"pj2k/internal/bitio"
	"pj2k/internal/dwt"
	"pj2k/internal/mq"
)

// passSnap captures the coder state at the entry of one coding pass, so a
// benchmark can re-run exactly that pass from identical state every
// iteration.
type passSnap struct {
	mag   []int32
	flags []uint32
	cx    [nctx]mq.Context
}

func snap(c *coder) passSnap {
	return passSnap{
		mag:   append([]int32(nil), c.mag...),
		flags: append([]uint32(nil), c.flags...),
		cx:    c.cx,
	}
}

func (s *passSnap) restore(c *coder) {
	copy(c.mag, s.mag)
	copy(c.flags, s.flags)
	c.cx = s.cx
}

// passSnapshots replays the encode of a canonical block down to the given
// plane and captures the state at the entry of each of its three passes.
func passSnapshots(data []int32, n int, band dwt.BandType, plane uint) (co *Coder, sig, ref, clean passSnap) {
	co = NewCoder()
	c := &co.c
	c.reset(n, n, band)
	var maxMag int32
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			v := data[y*n+x]
			i := c.idx(x, y)
			if v < 0 {
				c.flags[i] |= fNeg
				v = -v
			}
			c.mag[i] = v
			if v > maxMag {
				maxMag = v
			}
		}
	}
	nbp := 0
	for m := maxMag; m > 0; m >>= 1 {
		nbp++
	}
	if int(plane) >= nbp-1 {
		panic("bench: plane too high for the canonical block")
	}
	c.resetContexts()
	enc := &co.enc
	enc.Init()
	for p := nbp - 1; p > int(plane); p-- {
		pp := uint(p)
		if p != nbp-1 {
			c.encSigProp(enc, pp)
			c.encRefine(enc, pp)
		}
		c.encCleanup(enc, pp) // also drops the plane's visited bits
	}
	sig = snap(c)
	c.encSigProp(enc, plane)
	ref = snap(c)
	c.encRefine(enc, plane)
	clean = snap(c)
	return co, sig, ref, clean
}

// BenchmarkT1Passes times each tier-1 coding pass in isolation on a
// canonical 64x64 block at a mid-depth plane (realistic significance state),
// so the flag-word/LUT and MQ wins are attributable per pass. State is
// restored from a snapshot every iteration; the restore (two ~17 KB copies)
// is a few percent of a pass.
func BenchmarkT1Passes(b *testing.B) {
	data := testBlock(64)
	const plane = 4 // canonical block has 10 bit-planes; mid-depth state
	co, sigS, refS, cleanS := passSnapshots(data, 64, dwt.HH, plane)
	c := &co.c
	run := func(s *passSnap, pass func(enc *mq.Encoder, plane uint) float64) func(b *testing.B) {
		return func(b *testing.B) {
			b.SetBytes(64 * 64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.restore(c)
				co.enc.Init()
				pass(&co.enc, plane)
			}
		}
	}
	b.Run("sigprop", run(&sigS, c.encSigProp))
	b.Run("magref", run(&refS, c.encRefine))
	b.Run("cleanup", run(&cleanS, c.encCleanup))

	// Raw (bypass) variants of the two passes the lazy mode bypasses, from
	// the same snapshots — the per-pass attribution behind the headline
	// bypass-vs-MQ speedup (the raw coder emits bits with only 0xFF
	// stuffing, no interval arithmetic or context lookups).
	var rw bitio.StuffWriter
	runRaw := func(s *passSnap, pass func(w *bitio.StuffWriter, plane uint) float64) func(b *testing.B) {
		return func(b *testing.B) {
			b.SetBytes(64 * 64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.restore(c)
				rw.Reset()
				pass(&rw, plane)
			}
		}
	}
	b.Run("sigprop-raw", runRaw(&sigS, c.encSigPropRaw))
	b.Run("magref-raw", runRaw(&refS, c.encRefineRaw))
}

// BenchmarkT1DecodePasses is the decode analogue: the same canonical block's
// passes, decoded from the matching segment prefix each iteration. Two more
// cases give each bit-level loop of the decoder its own gauge: bypass-termall
// decodes a deep (14-plane) block whose raw passes read their bits through
// the register window, and float decodes a random block into a 9/7 plane
// (the branch-free write-out plus dequantization).
func BenchmarkT1DecodePasses(b *testing.B) {
	data := testBlock(64)
	eb := encodeBlock(data, 64, 64, 64, dwt.HH)
	bd := NewBlockDecoder()
	run := func(in BlockIn, dst Dest) func(b *testing.B) {
		return func(b *testing.B) {
			b.SetBytes(64 * 64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bd.DecodeInto(&in, &dst, false); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	ints := make([]int32, 64*64)
	for _, np := range []int{1, len(eb.Passes) / 2, len(eb.Passes)} {
		b.Run("passes="+strconv.Itoa(np), run(blockIn(eb, np), Dest{Int: ints, Stride: 64}))
	}
	deep := (&Coder{Modes: Modes{Bypass: true, TermAll: true}}).Encode(randBlock(64, 64, 1<<13, 0.6, 7), 64, 64, 64, dwt.HH)
	if deep.NumBitplanes < 12 {
		b.Fatalf("deep block has %d bit-planes, want at least 12", deep.NumBitplanes)
	}
	b.Run("bypass-termall", run(blockIn(deep, len(deep.Passes)), Dest{Int: ints, Stride: 64}))
	// A random block: the canonical one's signs and zeros repeat with a short
	// period a branch predictor learns, which real coefficients do not.
	rnd := encodeBlock(randBlock(64, 64, 1<<9, 0.5, 3), 64, 64, 64, dwt.HL)
	b.Run("float", run(blockIn(rnd, len(rnd.Passes)), Dest{Float: make([]float64, 64*64), Stride: 64, Step: 0.75}))
}

// BenchmarkCodersSideBySide is the false-sharing probe of DESIGN.md §7 at the
// t1 layer: GOMAXPROCS goroutines, each with its own Coder — all created back
// to back on this goroutine, so the allocator packs them as tightly as it ever
// will — encode the same block set at once. side/solo is the per-block time
// with every goroutine running over the time of one running alone: ~1.0 when
// the coders leave each other's cache lines alone (it was 1.3–1.5 when each
// Coder pointed at a 40-byte mq.Encoder of its own), and it cannot drop below
// 1 on a host with fewer idle cores than goroutines.
func BenchmarkCodersSideBySide(b *testing.B) {
	p := runtime.GOMAXPROCS(0)
	data := testBlock(64)
	bands := []dwt.BandType{dwt.LL, dwt.HL, dwt.LH, dwt.HH, dwt.HH, dwt.LH, dwt.HL, dwt.LL}
	coders := make([]*Coder, p)
	for i := range coders {
		coders[i] = NewCoder()
	}
	encodeSet := func(co *Coder) {
		for _, band := range bands {
			co.Encode(data, 64, 64, 64, band)
		}
		co.Release()
	}
	for _, co := range coders {
		encodeSet(co) // size the arenas
	}
	var solo, side time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		encodeSet(coders[0])
		solo += time.Since(t0)
		t0 = time.Now()
		var wg sync.WaitGroup
		for _, co := range coders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				encodeSet(co)
			}()
		}
		wg.Wait()
		side += time.Since(t0)
	}
	blocks := float64(b.N * len(bands))
	b.ReportMetric(float64(solo)/blocks, "solo-ns/block")
	b.ReportMetric(float64(side)/blocks, "side-ns/block")
	b.ReportMetric(float64(side)/float64(solo), "side/solo")
}
