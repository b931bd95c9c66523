package main

import (
	"fmt"
	"math/rand/v2"

	"pj2k/internal/dwt"
	"pj2k/internal/jp2k"
	"pj2k/internal/metrics"
	"pj2k/internal/raster"
)

// geometry scales every dimension of the corpus and of the requests from one
// tile edge T: the batch images are 8T square (4T for the colour one), BIG is
// 16T square in T x T tiles (256 tiles), COL is 8T square (64 tiles). The
// driver runs T=128; the smoke test runs T=32, which keeps every tile count
// and every request shape while shrinking the pixels 16-fold.
type geometry struct{ T int }

var (
	fullGeometry  = geometry{T: 128}
	smokeGeometry = geometry{T: 32}
)

// item is one image of the corpus with the options it is coded with.
type item struct {
	name     string
	pl       *raster.Planar
	opts     jp2k.Options // Workers is set per operation
	lossless bool
	cs       []byte // reference codestream, once encoded
}

func (it *item) mpix() float64 { return float64(it.pl.Width()*it.pl.Height()) / 1e6 }
func (it *item) maxval() int {
	if it.opts.BitDepth > 8 {
		return 1<<uint(it.opts.BitDepth) - 1
	}
	return 255
}

// subSeed derives an independent 64-bit seed for one named stream of the run.
func subSeed(seed uint64, stream string) uint64 {
	h := seed*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func newRand(seed uint64, stream string) *rand.Rand {
	return rand.New(rand.NewPCG(subSeed(seed, stream), 0x5851f42d4c957f2d))
}

// colorPlanar builds three correlated 8-bit planes, as the channels of a
// natural image are: one shared structure plus per-channel detail.
func colorPlanar(w, h int, seed uint64) *raster.Planar {
	base := raster.Synthetic(w, h, seed)
	g, b := raster.Synthetic(w, h, seed+1), raster.Synthetic(w, h, seed+2)
	for i, v := range base.Pix {
		g.Pix[i] = (v + g.Pix[i]) / 2
		b.Pix[i] = (v + b.Pix[i]) / 2
	}
	return raster.RGB(base, g, b)
}

// batchItems builds the four images of the batch workloads.
func batchItems(seed uint64, g geometry) []*item {
	n := 8 * g.T
	return []*item{
		{name: "G1", lossless: true,
			pl:   raster.Gray(raster.Synthetic(n, n, subSeed(seed, "G1"))),
			opts: jp2k.Options{Kernel: dwt.Rev53, VertMode: dwt.VertBlocked}},
		{name: "G2",
			pl: raster.Gray(raster.Synthetic(n, n, subSeed(seed, "G2"))),
			opts: jp2k.Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 1.0},
				TileW: 2 * g.T, TileH: 2 * g.T, VertMode: dwt.VertBlocked}},
		{name: "G3", lossless: true,
			pl: raster.Gray(raster.SyntheticRadiograph(n, n, subSeed(seed, "G3"))),
			opts: jp2k.Options{Kernel: dwt.Rev53, BitDepth: 12, VertMode: dwt.VertBlocked,
				Coder: jp2k.CoderOptions{Bypass: true, TermAll: true}}},
		{name: "C1",
			pl: colorPlanar(n/2, n/2, subSeed(seed, "C1")),
			opts: jp2k.Options{Kernel: dwt.Irr97, MCT: true, LayerBPP: []float64{1.0},
				VertMode: dwt.VertBlocked}},
	}
}

// serveItems builds the two served images.
func serveItems(seed uint64, g geometry) []*item {
	return []*item{
		{name: "BIG",
			pl: raster.Gray(raster.Synthetic(16*g.T, 16*g.T, subSeed(seed, "BIG"))),
			opts: jp2k.Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.125, 0.5, 1.0},
				TileW: g.T, TileH: g.T, VertMode: dwt.VertBlocked}},
		{name: "COL", lossless: true,
			pl: colorPlanar(8*g.T, 8*g.T, subSeed(seed, "COL")),
			opts: jp2k.Options{Kernel: dwt.Rev53, MCT: true,
				TileW: g.T, TileH: g.T, VertMode: dwt.VertBlocked}},
	}
}

// probeItems cuts small images out of the served corpus, coded the way the
// batch items are, so the traced run of a serve workload can reach the
// encode-side layers on the workload's own pixels.
func probeItems(served []*item, g geometry) []*item {
	big, col := served[0], served[1]
	n := 4 * g.T
	crop := func(pl *raster.Planar) *raster.Planar {
		out := raster.NewPlanar(n, n, pl.NComp())
		for ci, c := range pl.Comps {
			for y := 0; y < n; y++ {
				copy(out.Comps[ci].Row(y), c.Row(y)[:n])
			}
		}
		return out
	}
	gray := crop(big.pl)
	return []*item{
		{name: "BIG.crop", pl: gray, opts: big.opts},
		{name: "COL.crop", pl: crop(col.pl), opts: col.opts, lossless: true},
		{name: "BIG.crop.bypass", pl: gray, lossless: true,
			opts: jp2k.Options{Kernel: dwt.Rev53, VertMode: dwt.VertBlocked,
				Coder: jp2k.CoderOptions{Bypass: true, TermAll: true}}},
	}
}

// hashItems folds the pixels of every item into one number: the batch
// workloads' operations are their items, so this is their operation-list hash.
func hashItems(items []*item) uint64 {
	h := uint64(0)
	for _, it := range items {
		h = h*1099511628211 ^ hashPlanar(it.pl)
	}
	return h
}

// PSNR floors of the correctness oracle. The lossy items are coded at 1 bpp,
// where the synthetic images decode above 32 dB on every seed tried; a decode
// at a quarter of the resolution is compared with a box-filtered original,
// which a wavelet low-pass band only approximates.
const (
	psnrFloorFull    = 28.0
	psnrFloorReduced = 18.0
)

// planarPSNR returns the mean PSNR over components (+Inf folded to 99 dB).
func planarPSNR(a, b *raster.Planar, peak float64) (float64, error) {
	if a.NComp() != b.NComp() {
		return 0, fmt.Errorf("bench: %d vs %d components", a.NComp(), b.NComp())
	}
	total := 0.0
	for ci := range a.Comps {
		p, err := metrics.PSNR(a.Comps[ci], b.Comps[ci], peak)
		if err != nil {
			return 0, err
		}
		total += min(p, 99)
	}
	return total / float64(a.NComp()), nil
}

// boxReduce averages 2^d x 2^d blocks, with the decoder's ceil-halving size.
func boxReduce(pl *raster.Planar, d int) *raster.Planar {
	f := 1 << uint(d)
	w, h := (pl.Width()+f-1)/f, (pl.Height()+f-1)/f
	out := raster.NewPlanar(w, h, pl.NComp())
	for ci, c := range pl.Comps {
		for y := 0; y < h; y++ {
			row := out.Comps[ci].Row(y)
			for x := range row {
				var s, n int32
				for yy := y * f; yy < min((y+1)*f, c.Height); yy++ {
					for xx := x * f; xx < min((x+1)*f, c.Width); xx++ {
						s += c.At(xx, yy)
						n++
					}
				}
				row[x] = s / n
			}
		}
	}
	return out
}

// checkDecoded judges one decode of it (at discard levels d) against the
// original: bit-exact for a full decode of a lossless item, above the PSNR
// floor otherwise. It returns the PSNR it measured (0 when bit-exact).
func checkDecoded(it *item, got *raster.Planar, d int, allLayers bool) (float64, error) {
	want := it.pl
	if d > 0 {
		want = boxReduce(it.pl, d)
	}
	if got.Width() != want.Width() || got.Height() != want.Height() || got.NComp() != want.NComp() {
		return 0, fmt.Errorf("%s: decoded %dx%dx%d, want %dx%dx%d", it.name,
			got.Width(), got.Height(), got.NComp(), want.Width(), want.Height(), want.NComp())
	}
	if it.lossless && d == 0 && allLayers {
		if !raster.PlanarEqual(got, want) {
			return 0, fmt.Errorf("%s: lossless round trip is not bit-exact", it.name)
		}
		return 0, nil
	}
	p, err := planarPSNR(got, want, float64(it.maxval()))
	if err != nil {
		return 0, err
	}
	floor := psnrFloorFull
	if d > 0 || !allLayers {
		floor = psnrFloorReduced
	}
	if p < floor {
		return p, fmt.Errorf("%s: PSNR %.2f dB below the %.0f dB floor (reduce=%d)", it.name, p, floor, d)
	}
	return p, nil
}
