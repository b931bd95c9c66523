// Package pj2k's root benchmark harness: one bench per table/figure of the
// paper (see DESIGN.md's per-experiment index) plus the ablations DESIGN.md
// calls out and microbenchmarks of the substrates.
//
// Run everything with: go test -bench=. -benchmem
package pj2k

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"pj2k/internal/cachesim"
	"pj2k/internal/dwt"
	"pj2k/internal/experiments"
	"pj2k/internal/jp2k"
	"pj2k/internal/jpegbase"
	"pj2k/internal/mq"
	"pj2k/internal/quant"
	"pj2k/internal/raster"
	"pj2k/internal/smp"
	"pj2k/internal/spiht"
	"pj2k/internal/t1"
	"pj2k/internal/t2"
)

// benchKpix keeps the host-measured benches affordable; the experiments
// binary sweeps the full size axis.
const benchKpix = 256

func benchImage() *raster.Image { return raster.KPixelImage(benchKpix, 1) }

// --- Fig. 2: compression timings per codec.

func BenchmarkFig2_JPEG(b *testing.B) {
	im := benchImage()
	b.SetBytes(int64(im.Width * im.Height))
	for i := 0; i < b.N; i++ {
		jpegbase.Encode(im, 75)
	}
}

func BenchmarkFig2_SPIHT(b *testing.B) {
	im := benchImage()
	b.SetBytes(int64(im.Width * im.Height))
	for i := 0; i < b.N; i++ {
		if _, err := spiht.Encode(im, 5, im.Width*im.Height/8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2_JPEG2000(b *testing.B) {
	im := benchImage()
	b.SetBytes(int64(im.Width * im.Height))
	opts := jp2k.Options{Kernel: dwt.Irr97, LayerBPP: []float64{1.0}, Workers: 1}
	for i := 0; i < b.N; i++ {
		if _, _, err := jp2k.Encode(im, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 3: serial stage analysis (the full pipeline, naive filtering).

func BenchmarkFig3_Stages(b *testing.B) {
	im := benchImage()
	opts := jp2k.Options{Kernel: dwt.Irr97, LayerBPP: []float64{1.0}, Workers: 1, VertMode: dwt.VertNaive}
	for i := 0; i < b.N; i++ {
		if _, _, err := jp2k.Encode(im, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figs. 4/5: tiling quality experiments (encode+decode round trip).

func BenchmarkFig4_Tiling(b *testing.B) {
	im := raster.Synthetic(512, 512, 4242)
	opts := jp2k.Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.125}, TileW: 128, TileH: 128}
	for i := 0; i < b.N; i++ {
		cs, _, err := jp2k.Encode(im, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := jp2k.Decode(cs, jp2k.DecodeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_RD(b *testing.B) {
	im := raster.Synthetic(512, 512, 4242)
	for i := 0; i < b.N; i++ {
		for _, bpp := range []float64{0.0625, 0.25, 1.0} {
			if _, _, err := jp2k.Encode(im, jp2k.Options{Kernel: dwt.Irr97, LayerBPP: []float64{bpp}}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figs. 6-13 and Sec. 3.3/3.4: the machine-model tables.

func BenchmarkFig6_Parallel4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6([]int{benchKpix})
	}
}

func BenchmarkFig7_Filtering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7(1024)
	}
}

func BenchmarkFig8_FilterSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig8(1024)
	}
}

func BenchmarkFig9_Improved4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9([]int{benchKpix})
	}
}

func BenchmarkFig10_SGIFilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig10()
	}
}

func BenchmarkFig11_SGIFilterSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig11()
	}
}

func BenchmarkFig12_TotalSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig12(16384)
	}
}

func BenchmarkFig13_ClassicSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig13(16384)
	}
}

func BenchmarkQuant_Parallel(b *testing.B) {
	// Real parallel quantization on the host (the Sec. 3.3 stage).
	const n = 2048
	src := make([]float64, n*n)
	for i := range src {
		src[i] = float64(i%4093)*0.31 - 600
	}
	dst := make([]int32, n*n)
	jobs := []quant.BandJob{{Band: dwt.Subband{X0: 0, Y0: 0, X1: n, Y1: n}, Step: 1.0 / 512, Dst: dst, DstStride: n}}
	b.SetBytes(int64(n * n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.ForwardBands(src, n, jobs, runtime.GOMAXPROCS(0), nil)
	}
}

func BenchmarkAmdahl_Table(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Amdahl(benchKpix)
	}
}

// --- Ablations (DESIGN.md Sec. 5).

// BenchmarkAblation_BlockWidth sweeps the improved filter's column-block
// width on the host, for both kernels (4 B and 8 B samples) in both
// directions: the table dwt's default block width is picked from.
func BenchmarkAblation_BlockWidth(b *testing.B) {
	im := raster.Synthetic(1024, 1024, 3)
	for _, k := range dwtCases(im, 5) {
		for _, fwd := range []bool{true, false} {
			for _, bw := range []int{8, 16, 32, 64, 128} {
				b.Run(k.name+"/"+dirName(fwd)+"/"+byName("bw", bw), func(b *testing.B) {
					st := dwt.Strategy{VertMode: dwt.VertBlocked, BlockWidth: bw, Workers: 1, Scratch: new(dwt.Scratch)}
					k.bench(b, fwd, st)
				})
			}
		}
	}
}

// BenchmarkAblation_PadVsBlocked compares the paper's two cache fixes in the
// cache model: width padding (keep the naive filter, change the stride)
// versus the blocked filter.
func BenchmarkAblation_PadVsBlocked(b *testing.B) {
	cfg := cachesim.NewPentiumII()
	m := smp.PentiumIIXeon(4)
	variants := []struct {
		name string
		spec smp.FilterSpec
	}{
		{"naive-pow2", smp.FilterSpec{W: 2048, H: 2048, Stride: 2048, Levels: 5, Kernel: dwt.Irr97, Mode: dwt.VertNaive}},
		{"naive-padded", smp.FilterSpec{W: 2048, H: 2048, Stride: 2048 + 8, Levels: 5, Kernel: dwt.Irr97, Mode: dwt.VertNaive}},
		{"blocked-pow2", smp.FilterSpec{W: 2048, H: 2048, Stride: 2048, Levels: 5, Kernel: dwt.Irr97, Mode: dwt.VertBlocked}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				last = m.SerialTime(smp.VerticalWork(cfg, v.spec))
			}
			b.ReportMetric(last*1e3, "model-ms")
		})
	}
}

// --- Real-goroutine parallel encode (bit-identical by construction; on a
// multi-core host this shows true wall-clock scaling). Each sub-bench holds
// one pooled jp2k.Encoder, so allocs/op reports the steady state the server
// workloads will see. The w>1 sub-benches also report speedup_vs_w1: each
// iteration first runs the same encoder at Workers=1 with the timer stopped,
// so the ratio is taken inside one process and host drift cancels.

func BenchmarkEncodeWorkers(b *testing.B) {
	im := benchImage()
	for _, w := range []int{1, 2, 4} {
		b.Run(byName("w", w), func(b *testing.B) {
			opts := jp2k.Options{Kernel: dwt.Irr97, LayerBPP: []float64{1.0}, Workers: w, VertMode: dwt.VertBlocked}
			serial := opts
			serial.Workers = 1
			enc := jp2k.NewEncoder()
			defer enc.Close()
			if _, _, err := enc.Encode(im, opts); err != nil { // size every worker's arenas
				b.Fatal(err)
			}
			b.SetBytes(int64(im.Width * im.Height))
			b.ReportAllocs()
			b.ResetTimer()
			var t1, tw time.Duration
			var st *jp2k.EncodeStats
			for i := 0; i < b.N; i++ {
				if w > 1 {
					b.StopTimer()
					t0 := time.Now()
					if _, _, err := enc.Encode(im, serial); err != nil {
						b.Fatal(err)
					}
					t1 += time.Since(t0)
					b.StartTimer()
				}
				t0 := time.Now()
				var err error
				if _, st, err = enc.Encode(im, opts); err != nil {
					b.Fatal(err)
				}
				tw += time.Since(t0)
			}
			if w > 1 {
				b.ReportMetric(float64(t1)/float64(tw), "speedup_vs_w1")
			}
			b.ReportMetric(st.CodedShare(), "passes_coded_share")
		})
	}
}

// BenchmarkEncodeOneShot is the throwaway-Encoder path for comparison (every
// call pays the pool construction the pooled bench amortizes).
func BenchmarkEncodeOneShot(b *testing.B) {
	im := benchImage()
	opts := jp2k.Options{Kernel: dwt.Irr97, LayerBPP: []float64{1.0}, Workers: 4, VertMode: dwt.VertBlocked}
	b.SetBytes(int64(im.Width * im.Height))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := jp2k.Encode(im, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode sweeps the pooled decode path over worker counts and
// reduce levels; each sub-bench holds one pooled jp2k.Decoder, so allocs/op
// reports the steady state a tile server sees.
func BenchmarkDecode(b *testing.B) {
	im := benchImage()
	cs, _, err := jp2k.Encode(im, jp2k.Options{Kernel: dwt.Irr97, LayerBPP: []float64{1.0}})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		for _, reduce := range []int{0, 2} {
			b.Run(byName("w", w)+"/"+byName("reduce", reduce), func(b *testing.B) {
				dec := jp2k.NewDecoder()
				defer dec.Close()
				opts := jp2k.DecodeOptions{Workers: w, DiscardLevels: reduce, VertMode: dwt.VertBlocked}
				b.SetBytes(int64(im.Width * im.Height))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := dec.Decode(cs, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDecodeOneShot is the throwaway-Decoder path for comparison (every
// call pays the pool construction the pooled bench amortizes).
func BenchmarkDecodeOneShot(b *testing.B) {
	im := benchImage()
	cs, _, err := jp2k.Encode(im, jp2k.Options{Kernel: dwt.Irr97, LayerBPP: []float64{1.0}})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(im.Width * im.Height))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jp2k.Decode(cs, jp2k.DecodeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeStream compares the two codestream source kinds through the
// streaming decode path: resident bytes (mem) against a real file read via
// io.ReaderAt (readerat). Both run one code path — every tile body is one
// ReadAt into the pooled per-tile buffer — so the spread between the two is
// the storage medium alone; allocs/op watches that buffer (a broken pool
// shows up as allocs scaling with tiles).
func BenchmarkDecodeStream(b *testing.B) {
	im := benchImage()
	cs, _, err := jp2k.Encode(im, jp2k.Options{
		Kernel: dwt.Irr97, LayerBPP: []float64{1.0}, TileW: 128, TileH: 128,
	})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.j2k")
	if err := os.WriteFile(path, cs, 0o644); err != nil {
		b.Fatal(err)
	}
	fileSrc, err := t2.OpenFile(path)
	if err != nil {
		b.Fatal(err)
	}
	defer fileSrc.Close()
	for _, sk := range []struct {
		name string
		src  *t2.Source
	}{
		{"mem", t2.BytesSource(cs)},
		{"readerat", fileSrc},
	} {
		b.Run(sk.name, func(b *testing.B) {
			dec := jp2k.NewDecoder()
			defer dec.Close()
			opts := jp2k.DecodeOptions{Workers: 4, VertMode: dwt.VertBlocked}
			b.SetBytes(int64(im.Width * im.Height))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.DecodePlanarSource(sk.src, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeColor is the multi-component analogue of
// BenchmarkEncodeWorkers: a Csiz=3 MCT encode through one pooled Encoder, so
// allocs/op reports the steady state of the component x tile pipeline
// (ROADMAP budget: within 2x of 3x the single-component baseline).
func BenchmarkEncodeColor(b *testing.B) {
	im := benchImage()
	pl := raster.RGB(im, raster.Synthetic(im.Width, im.Height, 2), raster.Synthetic(im.Width, im.Height, 3))
	for _, w := range []int{1, 4} {
		b.Run(byName("w", w), func(b *testing.B) {
			opts := jp2k.Options{
				Kernel: dwt.Irr97, MCT: true, LayerBPP: []float64{1.0},
				Workers: w, VertMode: dwt.VertBlocked,
			}
			enc := jp2k.NewEncoder()
			defer enc.Close()
			b.SetBytes(int64(3 * im.Width * im.Height))
			b.ReportAllocs()
			var st *jp2k.EncodeStats
			for i := 0; i < b.N; i++ {
				var err error
				if _, st, err = enc.EncodePlanar(pl, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(st.CodedShare(), "passes_coded_share")
		})
	}
}

// BenchmarkEncodeLayers encodes one image under budgets from starving to
// non-binding. Tier-1 stops where PCRD stops (DESIGN.md §8), so the binding
// budgets code a fraction of the passes; at 16 bpp the budget holds everything
// the 1/512 base step can produce, nothing stops, every pass is coded once and
// the only cost over plain full coding is the pilot's extra dispatch — the
// worst case, which must not be slower than before.
func BenchmarkEncodeLayers(b *testing.B) {
	im := benchImage()
	for _, bpp := range []float64{0.25, 1, 4, 16} {
		b.Run(strconv.FormatFloat(bpp, 'g', -1, 64)+"bpp", func(b *testing.B) {
			opts := jp2k.Options{Kernel: dwt.Irr97, LayerBPP: []float64{bpp}, Workers: 1, VertMode: dwt.VertBlocked}
			enc := jp2k.NewEncoder()
			defer enc.Close()
			if _, _, err := enc.Encode(im, opts); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(im.Width * im.Height))
			b.ReportAllocs()
			b.ResetTimer()
			var st *jp2k.EncodeStats
			for i := 0; i < b.N; i++ {
				var err error
				if _, st, err = enc.Encode(im, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(st.CodedShare(), "passes_coded_share")
			b.ReportMetric(float64(st.BlocksRecoded), "blocks_recoded")
		})
	}
}

// BenchmarkDecodeColor decodes the Csiz=3 stream through one pooled Decoder:
// the steady state a color tile server sees.
func BenchmarkDecodeColor(b *testing.B) {
	im := benchImage()
	pl := raster.RGB(im, raster.Synthetic(im.Width, im.Height, 2), raster.Synthetic(im.Width, im.Height, 3))
	cs, _, err := jp2k.EncodePlanar(pl, jp2k.Options{Kernel: dwt.Irr97, MCT: true, LayerBPP: []float64{1.0}})
	if err != nil {
		b.Fatal(err)
	}
	src := t2.BytesSource(cs)
	for _, w := range []int{1, 4} {
		b.Run(byName("w", w), func(b *testing.B) {
			dec := jp2k.NewDecoder()
			defer dec.Close()
			opts := jp2k.DecodeOptions{Workers: w, VertMode: dwt.VertBlocked}
			b.SetBytes(int64(3 * im.Width * im.Height))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.DecodePlanarSource(src, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeRegion measures windowed decoding out of a tiled stream:
// the viewport case the serving subsystem is built around. The window spans
// 2x2 of the 4x4 tile grid, so roughly 1/4 of the stream is decoded.
func BenchmarkDecodeRegion(b *testing.B) {
	im := raster.Synthetic(1024, 1024, 77)
	cs, _, err := jp2k.Encode(im, jp2k.Options{
		Kernel: dwt.Irr97, LayerBPP: []float64{1.0}, TileW: 256, TileH: 256, Workers: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	src := t2.BytesSource(cs)
	region := jp2k.Rect{X0: 300, Y0: 300, X1: 700, Y1: 700}
	for _, w := range []int{1, 4} {
		b.Run(byName("w", w), func(b *testing.B) {
			dec := jp2k.NewDecoder()
			defer dec.Close()
			opts := jp2k.DecodeOptions{Workers: w, VertMode: dwt.VertBlocked}
			b.SetBytes(int64(region.Dx() * region.Dy()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.DecodeRegionPlanarSource(src, region, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate microbenchmarks.

func BenchmarkMQEncode(b *testing.B) {
	decisions := make([]int, 1<<16)
	for i := range decisions {
		decisions[i] = (i * 2654435761) >> 13 & 1
	}
	b.SetBytes(int64(len(decisions)) / 8)
	b.ReportAllocs()
	enc := new(mq.Encoder)
	for i := 0; i < b.N; i++ {
		enc.Init()
		var cx mq.Context
		for _, d := range decisions {
			enc.Encode(d, &cx)
		}
		enc.Flush()
	}
}

// BenchmarkMQDecode is the decode analogue of BenchmarkMQEncode: the same
// pseudo-random decision stream, decoded through one pooled mq.Decoder via
// Reset, so the Decode/byteIn fast paths are measured without per-segment
// allocation noise.
func BenchmarkMQDecode(b *testing.B) {
	decisions := make([]int, 1<<16)
	for i := range decisions {
		decisions[i] = (i * 2654435761) >> 13 & 1
	}
	enc := new(mq.Encoder)
	enc.Init()
	var cx mq.Context
	for _, d := range decisions {
		enc.Encode(d, &cx)
	}
	seg := append([]byte(nil), enc.Flush()...)
	// Sanity: the segment must decode back to the input decisions.
	dec := new(mq.Decoder)
	dec.Reset(seg)
	cx = mq.Context{}
	for i, d := range decisions {
		if got := dec.Decode(&cx); got != d {
			b.Fatalf("decision %d: decoded %d, want %d", i, got, d)
		}
	}
	b.SetBytes(int64(len(decisions)) / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Reset(seg)
		cx = mq.Context{}
		for range decisions {
			dec.Decode(&cx)
		}
	}
}

// BenchmarkDWT times each transform entry point on a 1024² plane at 5
// levels: kernel × direction × vertical filter × workers. The inverse runs
// on forward coefficients, as a decode does.
func BenchmarkDWT(b *testing.B) {
	im := raster.Synthetic(1024, 1024, 1)
	for _, k := range dwtCases(im, 5) {
		for _, fwd := range []bool{true, false} {
			for _, mode := range []dwt.VertMode{dwt.VertNaive, dwt.VertBlocked} {
				for _, w := range []int{1, 2} {
					b.Run(k.name+"/"+dirName(fwd)+"/"+mode.String()+"/w="+strconv.Itoa(w), func(b *testing.B) {
						k.bench(b, fwd, dwt.Strategy{VertMode: mode, Workers: w, Scratch: new(dwt.Scratch)})
					})
				}
			}
		}
	}
}

// dwtCase is one kernel of the DWT benches: load resets its work plane to
// the image (forward) or to the image's coefficients (inverse), run
// transforms it.
type dwtCase struct {
	name  string
	bytes int64 // plane size
	load  func(fwd bool)
	run   func(fwd bool, st dwt.Strategy)
}

// dwtCases returns the 5/3 and 9/7 cases over im at the given levels.
func dwtCases(im *raster.Image, levels int) []dwtCase {
	coef53 := im.Clone()
	dwt.Forward53(coef53, levels, dwt.Improved)
	coef97 := dwt.FromImage(im)
	dwt.Forward97(coef97, levels, dwt.Improved)
	work53, work97 := im.Clone(), dwt.FromImage(im)
	n := int64(im.Width * im.Height)
	return []dwtCase{
		{"53", 4 * n, func(fwd bool) {
			src := coef53
			if fwd {
				src = im
			}
			copy(work53.Pix, src.Pix)
		}, func(fwd bool, st dwt.Strategy) {
			if fwd {
				dwt.Forward53(work53, levels, st)
			} else {
				dwt.Inverse53(work53, levels, st)
			}
		}},
		{"97", 8 * n, func(fwd bool) {
			if fwd {
				work97 = dwt.FromImageReuse(work97, im)
			} else {
				copy(work97.Data, coef97.Data)
			}
		}, func(fwd bool, st dwt.Strategy) {
			if fwd {
				dwt.Forward97(work97, levels, st)
			} else {
				dwt.Inverse97(work97, levels, st)
			}
		}},
	}
}

// bench times k's transform under st, reloading its input outside the timer.
func (k dwtCase) bench(b *testing.B, fwd bool, st dwt.Strategy) {
	b.SetBytes(k.bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k.load(fwd)
		b.StartTimer()
		k.run(fwd, st)
	}
}

func dirName(fwd bool) string {
	if fwd {
		return "fwd"
	}
	return "inv"
}

func BenchmarkT1Block(b *testing.B) {
	data := make([]int32, 64*64)
	for i := range data {
		v := int32((i * 2654435761) % 512)
		if i%3 == 0 {
			v = -v
		}
		if i%5 != 0 {
			v = 0
		}
		data[i] = v
	}
	b.Run("oneshot", func(b *testing.B) {
		b.SetBytes(64 * 64 * 4)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			new(t1.Coder).Encode(data, 64, 64, 64, dwt.HH)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		co := new(t1.Coder)
		b.SetBytes(64 * 64 * 4)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			co.Encode(data, 64, 64, 64, dwt.HH)
			co.Release()
		}
	})
	// Mode variants: the lazy (bypass) coder replaces MQ coding with raw
	// bit-stuffing for most SigProp/MagRef passes — the headline perf claim
	// of this PR's coder-options work. TERMALL adds per-pass flush cost on
	// top; the pair is what a speed-tuned encoder ships. The sparse 9-plane
	// block above shows the modest 8-bit-imagery win; the dense 14-plane
	// "deep" block is the use case the mode was designed for (high-bit-depth
	// imagery, where most passes sit below the bypass threshold) and carries
	// the headline >=1.3x bypass+termall vs MQ claim.
	modeCases := []struct {
		name  string
		modes t1.Modes
	}{
		{"mq", t1.Modes{}},
		{"bypass", t1.Modes{Bypass: true}},
		{"bypass+termall", t1.Modes{Bypass: true, TermAll: true}},
		{"termall", t1.Modes{TermAll: true}},
	}
	for _, mc := range modeCases[1:] {
		b.Run(mc.name, func(b *testing.B) {
			co := new(t1.Coder)
			co.Modes = mc.modes
			b.SetBytes(64 * 64 * 4)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				co.Encode(data, 64, 64, 64, dwt.HH)
				co.Release()
			}
		})
	}
	deep := make([]int32, 64*64)
	for i := range deep {
		v := int32((i * 2654435761) % 16384)
		if i%3 == 0 {
			v = -v
		}
		deep[i] = v
	}
	for _, mc := range modeCases[:3] {
		b.Run("deep/"+mc.name, func(b *testing.B) {
			co := new(t1.Coder)
			co.Modes = mc.modes
			b.SetBytes(64 * 64 * 4)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				co.Encode(deep, 64, 64, 64, dwt.HH)
				co.Release()
			}
		})
	}
}

// BenchmarkEncodeCoderModes and BenchmarkDecodeCoderModes measure the
// end-to-end wall-time effect of the coder options: same pooled pipeline as
// BenchmarkEncodeWorkers/BenchmarkDecode, with bypass+TERMALL turned on.
// The decode side additionally exercises the parallel in-block segment
// decode (raw segments have no cross-pass MQ state, so a block's bypassed
// passes decode concurrently on the worker pool when w>1).
func BenchmarkEncodeCoderModes(b *testing.B) {
	im := benchImage()
	coder := jp2k.CoderOptions{Bypass: true, TermAll: true}
	for _, w := range []int{1, 4} {
		b.Run(byName("w", w), func(b *testing.B) {
			opts := jp2k.Options{
				Kernel: dwt.Irr97, LayerBPP: []float64{1.0}, Workers: w,
				VertMode: dwt.VertBlocked, Coder: coder,
			}
			enc := jp2k.NewEncoder()
			defer enc.Close()
			b.SetBytes(int64(im.Width * im.Height))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := enc.Encode(im, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeCoderModes(b *testing.B) {
	im := benchImage()
	cs, _, err := jp2k.Encode(im, jp2k.Options{
		Kernel: dwt.Irr97, LayerBPP: []float64{1.0},
		Coder: jp2k.CoderOptions{Bypass: true, TermAll: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		b.Run(byName("w", w), func(b *testing.B) {
			dec := jp2k.NewDecoder()
			defer dec.Close()
			opts := jp2k.DecodeOptions{Workers: w, VertMode: dwt.VertBlocked}
			b.SetBytes(int64(im.Width * im.Height))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.Decode(cs, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCacheSim(b *testing.B) {
	c := cachesim.New(cachesim.NewPentiumII())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*64) & 0xFFFFF)
	}
}

// helpers

func byName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}
