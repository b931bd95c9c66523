package dwt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pj2k/internal/core"
	"pj2k/internal/raster"
)

func randomImage(w, h int, seed int64) *raster.Image {
	im := raster.New(w, h)
	rng := rand.New(rand.NewSource(seed))
	for i := range im.Pix {
		im.Pix[i] = int32(rng.Intn(256)) - 128
	}
	return im
}

var testStrategies = []Strategy{
	{VertMode: VertNaive, Workers: 1},
	{VertMode: VertBlocked, BlockWidth: 8, Workers: 1},
	{VertMode: VertBlocked, BlockWidth: 32, Workers: 1},
	{VertMode: VertNaive, Workers: 4},
	{VertMode: VertBlocked, BlockWidth: 16, Workers: 4},
}

func TestForward53PerfectReconstruction(t *testing.T) {
	sizes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 9}, {16, 16}, {17, 31}, {64, 64}, {33, 65}, {128, 96}}
	for _, sz := range sizes {
		for levels := 0; levels <= 5; levels++ {
			for si, st := range testStrategies {
				im := randomImage(sz[0], sz[1], int64(levels*100+si))
				orig := im.Clone()
				Forward53(im, levels, st)
				Inverse53(im, levels, st)
				if !raster.Equal(im, orig) {
					t.Fatalf("5/3 PR failed: size %v levels %d strategy %d (%v)", sz, levels, si, st)
				}
			}
		}
	}
}

func TestForward53StrategiesBitIdentical(t *testing.T) {
	// All vertical modes and worker counts must produce the same transform,
	// or the paper's "parallelize without changing the output" claim breaks.
	im0 := randomImage(67, 43, 1)
	ref := im0.Clone()
	Forward53(ref, 3, testStrategies[0])
	for si, st := range testStrategies[1:] {
		im := im0.Clone()
		Forward53(im, 3, st)
		if !raster.Equal(im, ref) {
			t.Fatalf("strategy %d (%v) output differs from naive serial", si+1, st)
		}
	}
}

func TestForward53OnPaddedStride(t *testing.T) {
	// The width-padding cache fix must not change the transform.
	w, h := 64, 48
	src := randomImage(w, h, 2)
	ref := src.Clone()
	Forward53(ref, 3, Serial)

	pad := raster.NewPadded(w, h, w+24)
	for y := 0; y < h; y++ {
		copy(pad.Pix[y*pad.Stride:y*pad.Stride+w], src.Row(y))
	}
	Forward53(pad, 3, Serial)
	if !raster.Equal(pad.Clone(), ref) {
		t.Fatal("padded-stride transform differs from dense transform")
	}
}

func TestForward97PerfectReconstruction(t *testing.T) {
	sizes := [][2]int{{1, 1}, {2, 2}, {5, 9}, {16, 16}, {17, 31}, {64, 64}, {128, 96}}
	for _, sz := range sizes {
		for levels := 0; levels <= 5; levels++ {
			for si, st := range testStrategies {
				im := randomImage(sz[0], sz[1], int64(levels*100+si+7))
				p := FromImage(im)
				orig := append([]float64(nil), p.Data...)
				Forward97(p, levels, st)
				Inverse97(p, levels, st)
				for i := range p.Data {
					if math.Abs(p.Data[i]-orig[i]) > 1e-6 {
						t.Fatalf("9/7 PR failed at %d: got %g want %g (size %v levels %d strategy %d)",
							i, p.Data[i], orig[i], sz, levels, si)
					}
				}
			}
		}
	}
}

func TestForward97StrategiesMatch(t *testing.T) {
	// Naive and blocked 9/7 apply the same operations in the same order per
	// sample, so every strategy is bit-identical in both directions.
	im := randomImage(67, 43, 3)
	ref := FromImage(im)
	Forward97(ref, 3, testStrategies[0])
	refInv := &FPlane{Width: ref.Width, Height: ref.Height, Stride: ref.Stride, Data: append([]float64(nil), ref.Data...)}
	Inverse97(refInv, 3, testStrategies[0])
	for si, st := range testStrategies[1:] {
		p := FromImage(im)
		Forward97(p, 3, st)
		for i := range p.Data {
			if math.Float64bits(p.Data[i]) != math.Float64bits(ref.Data[i]) {
				t.Fatalf("forward: strategy %d (%v) differs from naive serial at %d: %g vs %g",
					si+1, st, i, p.Data[i], ref.Data[i])
			}
		}
		Inverse97(p, 3, st)
		for i := range p.Data {
			if math.Float64bits(p.Data[i]) != math.Float64bits(refInv.Data[i]) {
				t.Fatalf("inverse: strategy %d (%v) differs from naive serial at %d: %g vs %g",
					si+1, st, i, p.Data[i], refInv.Data[i])
			}
		}
	}
}

func TestScratchGrowsKeepingWarmSlots(t *testing.T) {
	// A Scratch warmed at one worker count serves a wider strategy: the
	// slots grow to its worker count and the warm buffers stay.
	s := NewScratch(1)
	src := randomImage(64, 48, 5)
	ref := src.Clone()
	Forward53(ref, 3, Serial)
	im := src.Clone()
	Forward53(im, 3, Strategy{VertMode: VertBlocked, Workers: 1, Scratch: s})
	warm := &s.ws[0].i32[:1][0]
	for _, st := range []Strategy{{VertMode: VertBlocked, Workers: 4, Scratch: s}, {VertMode: VertNaive, Workers: 2, Scratch: s}} {
		im = src.Clone()
		Forward53(im, 3, st)
		if !raster.Equal(im, ref) {
			t.Fatalf("%+v: output differs from naive serial", st)
		}
	}
	if len(s.ws) != 4 {
		t.Fatalf("scratch has %d slots after a 4-worker transform, want 4", len(s.ws))
	}
	if &s.ws[0].i32[:1][0] != warm {
		t.Fatal("growing the slots dropped worker 0's warm buffer")
	}
}

// transformDigest pins every transform output bit-exactly: the six entry
// points over degenerate, odd, rectangular and padded-stride shapes, levels
// 0-5, every test strategy plus a ragged blocked and a naive parallel one
// (both on Scratch), and the BandNorm tables of both kernels at levels 0-6.
const transformDigest = "db8a6e2552fc4ee2daaf8baed9c46124ed503fa2b08acd97bd13af87c97bd3e5"

func TestTransformDigest(t *testing.T) {
	sum := sha256.New()
	var buf [8]byte
	putI32 := func(pix []int32) {
		for _, v := range pix {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			sum.Write(buf[:4])
		}
	}
	putF64 := func(data []float64) {
		for _, v := range data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			sum.Write(buf[:])
		}
	}
	strategies := append(append([]Strategy(nil), testStrategies...),
		Strategy{VertMode: VertBlocked, BlockWidth: 3, Workers: 3, Scratch: NewScratch(3)},
		Strategy{VertMode: VertNaive, Workers: 2, Scratch: NewScratch(2)},
	)
	// {width, height, stride}
	shapes := [][3]int{{1, 1, 1}, {1, 37, 1}, {37, 1, 37}, {2, 2, 2}, {33, 65, 33}, {67, 43, 67}, {128, 96, 128}, {64, 48, 88}}
	for shi, sh := range shapes {
		w, h, stride := sh[0], sh[1], sh[2]
		for levels := 0; levels <= 5; levels++ {
			for si, st := range strategies {
				seed := int64(shi*1000 + levels*10 + si)
				rng := rand.New(rand.NewSource(seed))
				ints := make([]int32, stride*h)
				floats := make([]float64, stride*h)
				for i := range ints {
					ints[i] = int32(rng.Intn(512)) - 256
					floats[i] = rng.Float64()*512 - 256
				}
				newIm := func() *raster.Image {
					im := raster.NewPadded(w, h, stride)
					copy(im.Pix, ints)
					return im
				}
				newFP := func() *FPlane {
					return &FPlane{Width: w, Height: h, Stride: stride, Data: append([]float64(nil), floats...)}
				}
				im := newIm()
				Forward53(im, levels, st)
				putI32(im.Pix)
				im = newIm()
				Forward53Timed(im, levels, st)
				putI32(im.Pix)
				im = newIm()
				Inverse53(im, levels, st)
				putI32(im.Pix)
				fp := newFP()
				Forward97(fp, levels, st)
				putF64(fp.Data)
				fp = newFP()
				Forward97Timed(fp, levels, st)
				putF64(fp.Data)
				fp = newFP()
				Inverse97(fp, levels, st)
				putF64(fp.Data)
			}
		}
	}
	for _, k := range []Kernel{Rev53, Irr97} {
		for levels := 0; levels <= 6; levels++ {
			for _, b := range Subbands(1<<levels, 1<<levels, levels) {
				putF64([]float64{BandNorm(k, levels, b)})
			}
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != transformDigest {
		t.Fatalf("transform digest %s, pinned %s", got, transformDigest)
	}
}

func TestDWT53EnergyCompaction(t *testing.T) {
	// On a smooth natural image most energy must land in the LL band.
	im := raster.Synthetic(128, 128, 9)
	// Remove the mean so energy compares fairly.
	var mean int64
	for _, v := range im.Pix {
		mean += int64(v)
	}
	m := int32(mean / int64(len(im.Pix)))
	for i := range im.Pix {
		im.Pix[i] -= m
	}
	total := float64(0)
	for _, v := range im.Pix {
		total += float64(v) * float64(v)
	}
	Forward53(im, 3, Serial)
	// The transform is not orthonormal (lowpass DC gain 1), so weight each
	// band's energy by its synthesis norm to compare in the image domain.
	var llE, all float64
	for _, b := range Subbands(128, 128, 3) {
		w := BandNorm(Rev53, 3, b)
		var e float64
		for y := b.Y0; y < b.Y1; y++ {
			for x := b.X0; x < b.X1; x++ {
				v := float64(im.At(x, y))
				e += v * v
			}
		}
		e *= w * w
		all += e
		if b.Type == LL {
			llE = e
		}
	}
	// Weighted total should approximate the image energy. The 5/3 pair is
	// biorthogonal rather than orthogonal, so allow a generous band.
	if all < 0.3*total || all > 3*total {
		t.Fatalf("weighted transform energy %.0f vs image energy %.0f; norms inconsistent", all, total)
	}
	// The LL band holds 1/64 of the samples; energy compaction should put
	// well over half the energy there for a natural image.
	if llE < 0.5*all {
		t.Fatalf("LL energy fraction %.3f too small; DWT not compacting", llE/all)
	}
}

func TestDWT97DCGain(t *testing.T) {
	// A constant image must transform to (almost) pure LL with unit DC gain
	// per level in the JPEG2000 normalization.
	p := NewFPlane(64, 64)
	for i := range p.Data {
		p.Data[i] = 100
	}
	Forward97(p, 3, Serial)
	bands := Subbands(64, 64, 3)
	ll := bands[0]
	for y := ll.Y0 + 1; y < ll.Y1-1; y++ {
		for x := ll.X0 + 1; x < ll.X1-1; x++ {
			if math.Abs(p.Data[y*p.Stride+x]-100) > 1e-6 {
				t.Fatalf("LL interior sample %g, want 100 (DC gain 1)", p.Data[y*p.Stride+x])
			}
		}
	}
	for _, b := range bands[1:] {
		for y := b.Y0; y < b.Y1; y++ {
			for x := b.X0; x < b.X1; x++ {
				if math.Abs(p.Data[y*p.Stride+x]) > 1e-6 {
					t.Fatalf("%v sample %g, want 0 for constant input", b.Type, p.Data[y*p.Stride+x])
				}
			}
		}
	}
}

func TestSubbandsGeometry(t *testing.T) {
	bands := Subbands(64, 48, 3)
	if len(bands) != 10 {
		t.Fatalf("got %d bands", len(bands))
	}
	if bands[0].Type != LL || bands[0].X1 != 8 || bands[0].Y1 != 6 {
		t.Fatalf("LL band wrong: %+v", bands[0])
	}
	// Bands must tile the image exactly: total area matches, no overlap.
	area := 0
	covered := make([]bool, 64*48)
	for _, b := range bands {
		area += b.Width() * b.Height()
		for y := b.Y0; y < b.Y1; y++ {
			for x := b.X0; x < b.X1; x++ {
				if covered[y*64+x] {
					t.Fatalf("band overlap at (%d,%d) in %+v", x, y, b)
				}
				covered[y*64+x] = true
			}
		}
	}
	if area != 64*48 {
		t.Fatalf("bands cover %d of %d samples", area, 64*48)
	}
}

func TestSubbandsOddSizes(t *testing.T) {
	// Odd dimensions: lowpass gets the extra sample at every level.
	bands := Subbands(5, 7, 2)
	ll := bands[0]
	if ll.X1 != 2 || ll.Y1 != 2 {
		t.Fatalf("LL of 5x7 @2 levels = %dx%d, want 2x2", ll.X1, ll.Y1)
	}
	area := 0
	for _, b := range bands {
		if b.Width() < 0 || b.Height() < 0 {
			t.Fatalf("negative band %+v", b)
		}
		area += b.Width() * b.Height()
	}
	if area != 35 {
		t.Fatalf("area %d != 35", area)
	}
}

func TestResolutionBands(t *testing.T) {
	levels := 3
	bands := Subbands(64, 64, levels)
	next := 0 // the resolutions partition the bands, in order
	for r := 0; r <= levels; r++ {
		lo, hi := ResolutionBands(r)
		if lo != next || hi <= lo {
			t.Fatalf("resolution %d: bands [%d, %d), want to start at %d", r, lo, hi, next)
		}
		next = hi
		wantLevel := levels - r + 1
		if r == 0 {
			wantLevel = levels
		}
		for _, b := range bands[lo:hi] {
			if b.Level != wantLevel || (r == 0) != (b.Type == LL) {
				t.Fatalf("resolution %d includes %v band of level %d, want level %d", r, b.Type, b.Level, wantLevel)
			}
		}
	}
	if next != len(bands) {
		t.Fatalf("resolutions cover %d of %d bands", next, len(bands))
	}
}

func TestBandNorms(t *testing.T) {
	for _, k := range []Kernel{Rev53, Irr97} {
		levels := 3
		bands := Subbands(64, 64, levels)
		var prevLL float64
		for _, b := range bands {
			n := BandNorm(k, levels, b)
			if n <= 0 || math.IsNaN(n) {
				t.Fatalf("%v %v norm = %g", k, b.Type, n)
			}
			if b.Type == LL {
				prevLL = n
			}
		}
		// Deeper lowpass synthesis vectors have larger norms: LL norm must
		// exceed the shallowest HH norm.
		hh1 := bands[len(bands)-1]
		if BandNorm(k, levels, hh1) >= prevLL {
			t.Fatalf("%v: HH1 norm %g >= LL norm %g", k, BandNorm(k, levels, hh1), prevLL)
		}
	}
}

func TestBandNorm97LLValue(t *testing.T) {
	// For the normalized 9/7, the 1-level LL synthesis norm is known to be
	// close to 1.9659 (the standard's energy-weight tables).
	b := Subbands(32, 32, 1)[0]
	n := BandNorm(Irr97, 1, b)
	if math.Abs(n-1.9659) > 0.05 {
		t.Fatalf("LL1 norm %g, want ~1.9659", n)
	}
}

func TestQuick53RoundTrip(t *testing.T) {
	f := func(w8, h8 uint8, seed int64, lv uint8) bool {
		w, h := 1+int(w8%70), 1+int(h8%70)
		levels := int(lv % 6)
		im := randomImage(w, h, seed)
		orig := im.Clone()
		st := testStrategies[int(uint8(seed))%len(testStrategies)]
		Forward53(im, levels, st)
		Inverse53(im, levels, st)
		return raster.Equal(im, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuick97RoundTrip(t *testing.T) {
	f := func(w8, h8 uint8, seed int64, lv uint8) bool {
		w, h := 1+int(w8%70), 1+int(h8%70)
		levels := int(lv % 6)
		im := randomImage(w, h, seed)
		p := FromImage(im)
		orig := append([]float64(nil), p.Data...)
		st := testStrategies[int(uint8(seed))%len(testStrategies)]
		Forward97(p, levels, st)
		Inverse97(p, levels, st)
		for i := range p.Data {
			if math.Abs(p.Data[i]-orig[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- Step-at-a-time lifting: the oracle the one-sweep kernels must match bit
// for bit. Each lifting step is its own pass over an interleaved signal (or
// column block) in place, with a clamp on every neighbour read, and the
// (de)interleave is a separate copy.

func lift53Fwd(buf []int32) {
	n := len(buf)
	if n < 2 {
		return
	}
	sn, dn := (n+1)/2, n/2
	for i := 0; i < dn; i++ {
		s1 := buf[2*clamp(i+1, sn)]
		buf[2*i+1] -= (buf[2*i] + s1) >> 1
	}
	for i := 0; i < sn; i++ {
		d0 := buf[2*clamp(i-1, dn)+1]
		d1 := buf[2*clamp(i, dn)+1]
		buf[2*i] += (d0 + d1 + 2) >> 2
	}
}

func lift53Inv(buf []int32) {
	n := len(buf)
	if n < 2 {
		return
	}
	sn, dn := (n+1)/2, n/2
	for i := 0; i < sn; i++ {
		d0 := buf[2*clamp(i-1, dn)+1]
		d1 := buf[2*clamp(i, dn)+1]
		buf[2*i] -= (d0 + d1 + 2) >> 2
	}
	for i := 0; i < dn; i++ {
		s1 := buf[2*clamp(i+1, sn)]
		buf[2*i+1] += (buf[2*i] + s1) >> 1
	}
}

func lift53InvLinear(buf []float64) {
	n := len(buf)
	if n < 2 {
		return
	}
	sn, dn := (n+1)/2, n/2
	for i := 0; i < sn; i++ {
		d0 := buf[2*clamp(i-1, dn)+1]
		d1 := buf[2*clamp(i, dn)+1]
		buf[2*i] -= float64((d0 + d1) / 4)
	}
	for i := 0; i < dn; i++ {
		s1 := buf[2*clamp(i+1, sn)]
		buf[2*i+1] += float64((buf[2*i] + s1) / 2)
	}
}

func cols53Fwd(pix []int32, stride, x0, x1, ch int) {
	sn, dn := (ch+1)/2, ch/2
	for i := 0; i < dn; i++ {
		rd, rs0, rs1 := (2*i+1)*stride, 2*i*stride, 2*clamp(i+1, sn)*stride
		for x := x0; x < x1; x++ {
			pix[rd+x] -= (pix[rs0+x] + pix[rs1+x]) >> 1
		}
	}
	for i := 0; i < sn; i++ {
		rs, rd0, rd1 := 2*i*stride, (2*clamp(i-1, dn)+1)*stride, (2*clamp(i, dn)+1)*stride
		for x := x0; x < x1; x++ {
			pix[rs+x] += (pix[rd0+x] + pix[rd1+x] + 2) >> 2
		}
	}
}

func cols53Inv(pix []int32, stride, x0, x1, ch int) {
	sn, dn := (ch+1)/2, ch/2
	for i := 0; i < sn; i++ {
		rs, rd0, rd1 := 2*i*stride, (2*clamp(i-1, dn)+1)*stride, (2*clamp(i, dn)+1)*stride
		for x := x0; x < x1; x++ {
			pix[rs+x] -= (pix[rd0+x] + pix[rd1+x] + 2) >> 2
		}
	}
	for i := 0; i < dn; i++ {
		rd, rs0, rs1 := (2*i+1)*stride, 2*i*stride, 2*clamp(i+1, sn)*stride
		for x := x0; x < x1; x++ {
			pix[rd+x] += (pix[rs0+x] + pix[rs1+x]) >> 1
		}
	}
}

func lift97Fwd(buf []float64) {
	n := len(buf)
	sn, dn := (n+1)/2, n/2
	if dn == 0 {
		return
	}
	for i := 0; i < dn; i++ {
		buf[2*i+1] += float64(alpha97 * (buf[2*i] + buf[2*clamp(i+1, sn)]))
	}
	for i := 0; i < sn; i++ {
		buf[2*i] += float64(beta97 * (buf[2*clamp(i-1, dn)+1] + buf[2*clamp(i, dn)+1]))
	}
	for i := 0; i < dn; i++ {
		buf[2*i+1] += float64(gamma97 * (buf[2*i] + buf[2*clamp(i+1, sn)]))
	}
	for i := 0; i < sn; i++ {
		buf[2*i] += float64(delta97 * (buf[2*clamp(i-1, dn)+1] + buf[2*clamp(i, dn)+1]))
	}
	for i := 0; i < sn; i++ {
		buf[2*i] *= 1 / k97
	}
	for i := 0; i < dn; i++ {
		buf[2*i+1] *= k97
	}
}

func lift97Inv(buf []float64) {
	n := len(buf)
	sn, dn := (n+1)/2, n/2
	if dn == 0 {
		return
	}
	for i := 0; i < sn; i++ {
		buf[2*i] = float64(buf[2*i] * k97)
	}
	for i := 0; i < dn; i++ {
		buf[2*i+1] = float64(buf[2*i+1] * (1 / k97))
	}
	for i := 0; i < sn; i++ {
		buf[2*i] -= float64(delta97 * (buf[2*clamp(i-1, dn)+1] + buf[2*clamp(i, dn)+1]))
	}
	for i := 0; i < dn; i++ {
		buf[2*i+1] -= float64(gamma97 * (buf[2*i] + buf[2*clamp(i+1, sn)]))
	}
	for i := 0; i < sn; i++ {
		buf[2*i] -= float64(beta97 * (buf[2*clamp(i-1, dn)+1] + buf[2*clamp(i, dn)+1]))
	}
	for i := 0; i < dn; i++ {
		buf[2*i+1] -= float64(alpha97 * (buf[2*i] + buf[2*clamp(i+1, sn)]))
	}
}

func cols97Fwd(pix []float64, stride, x0, x1, ch int) {
	step97(pix, stride, x0, x1, ch, alpha97, true)
	step97(pix, stride, x0, x1, ch, beta97, false)
	step97(pix, stride, x0, x1, ch, gamma97, true)
	step97(pix, stride, x0, x1, ch, delta97, false)
	scale97(pix, stride, x0, x1, ch, 1/k97, k97)
}

func cols97Inv(pix []float64, stride, x0, x1, ch int) {
	scale97(pix, stride, x0, x1, ch, k97, 1/k97)
	step97(pix, stride, x0, x1, ch, -delta97, false)
	step97(pix, stride, x0, x1, ch, -gamma97, true)
	step97(pix, stride, x0, x1, ch, -beta97, false)
	step97(pix, stride, x0, x1, ch, -alpha97, true)
}

// step97 adds c times the sum of its two neighbours to every odd row (odd)
// or every even row of a column block.
func step97(pix []float64, stride, x0, x1, ch int, c float64, odd bool) {
	sn, dn := (ch+1)/2, ch/2
	if odd {
		for i := 0; i < dn; i++ {
			rd, rs0, rs1 := (2*i+1)*stride, 2*i*stride, 2*clamp(i+1, sn)*stride
			for x := x0; x < x1; x++ {
				pix[rd+x] += float64(c * (pix[rs0+x] + pix[rs1+x]))
			}
		}
		return
	}
	for i := 0; i < sn; i++ {
		rs, rd0, rd1 := 2*i*stride, (2*clamp(i-1, dn)+1)*stride, (2*clamp(i, dn)+1)*stride
		for x := x0; x < x1; x++ {
			pix[rs+x] += float64(c * (pix[rd0+x] + pix[rd1+x]))
		}
	}
}

func scale97(pix []float64, stride, x0, x1, ch int, even, odd float64) {
	for y := 0; y < ch; y++ {
		k := even
		if y%2 == 1 {
			k = odd
		}
		row := pix[y*stride+x0 : y*stride+x1]
		for x := range row {
			row[x] = float64(row[x] * k)
		}
	}
}

// deinterleave moves the interleaved signal src into dst[0], dst[stride],
// ...: its even (lowpass) samples first, then its odd (highpass) ones.
func deinterleave[T sample](src, dst []T, stride int) {
	j := 0
	for i0 := 0; i0 < 2; i0++ {
		for i := i0; i < len(src); i += 2 {
			dst[j] = src[i]
			j += stride
		}
	}
}

// interleave is the inverse of deinterleave.
func interleave[T sample](src []T, stride int, dst []T) {
	j := 0
	for i0 := 0; i0 < 2; i0++ {
		for i := i0; i < len(dst); i += 2 {
			dst[i] = src[j]
			j += stride
		}
	}
}

// deinterleaveRows moves a block's even rows to its top half and its odd
// rows to the bottom half; interleaveRows undoes it.
func deinterleaveRows[T sample](pix []T, stride, w, ch int) {
	tmp := make([]T, 0, w*ch)
	for y0 := 0; y0 < 2; y0++ {
		for y := y0; y < ch; y += 2 {
			tmp = append(tmp, pix[y*stride:y*stride+w]...)
		}
	}
	for y := 0; y < ch; y++ {
		copy(pix[y*stride:y*stride+w], tmp[y*w:])
	}
}

func interleaveRows[T sample](pix []T, stride, w, ch int) {
	tmp := make([]T, 0, w*ch)
	for y := 0; y < ch; y++ {
		tmp = append(tmp, pix[y*stride:y*stride+w]...)
	}
	t := 0
	for y0 := 0; y0 < 2; y0++ {
		for y := y0; y < ch; y += 2 {
			copy(pix[y*stride:y*stride+w], tmp[t:t+w])
			t += w
		}
	}
}

// stepwise wraps step-at-a-time kernels in the filter contract, so the
// production driver runs them unchanged: the 1-D kernels lift a copy in
// place and then (de)interleave it, the lane kernels restore the block from
// its scratch copy and lift it in place around a separate row
// (de)interleave.
func stepwise[T sample](fwd, inv func([]T), fwdCols, invCols func(pix []T, stride, x0, x1, ch int)) filter[T] {
	f := filter[T]{
		fwd: func(dst, src []T) {
			buf := append([]T(nil), src...)
			fwd(buf)
			deinterleave(buf, dst, 1)
		},
		inv: func(dst, src []T) {
			interleave(src, 1, dst)
			inv(dst)
		},
	}
	restore := func(l lanes[T], n int) {
		for y := 0; y < n; y++ {
			copy(l.d(y), l.s(y))
		}
	}
	if fwdCols != nil {
		f.fwdCols = func(l lanes[T], n int) {
			restore(l, n)
			fwdCols(l.dst, l.ds, 0, l.w, n)
			deinterleaveRows(l.dst, l.ds, l.w, n)
		}
		f.invCols = func(l lanes[T], n int) {
			restore(l, n)
			interleaveRows(l.dst, l.ds, l.w, n)
			invCols(l.dst, l.ds, 0, l.w, n)
		}
	}
	return f
}

var (
	oracle53  = stepwise(lift53Fwd, lift53Inv, cols53Fwd, cols53Inv)
	oracle97  = stepwise(lift97Fwd, lift97Inv, cols97Fwd, cols97Inv)
	oracleLin = stepwise(nil, lift53InvLinear, nil, nil)
)

// firstDiff returns the first index where a and b differ in their bits, or
// -1.
func firstDiff[T sample](a, b []T) int {
	for i := range a {
		if fa, ok := any(a[i]).(float64); ok {
			if math.Float64bits(fa) != math.Float64bits(any(b[i]).(float64)) {
				return i
			}
		} else if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// checkKernels compares a filter's kernels with its step-at-a-time oracle on
// 1-D lengths 1-130, and (when it has lane kernels) on column blocks of width
// 1-33 in padded planes of height 1-130 through the blocked driver.
func checkKernels[T sample](t *testing.T, name string, f, or *filter[T], gen func(*rand.Rand) T) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	fill := func(n int) []T {
		v := make([]T, n)
		for i := range v {
			v[i] = gen(rng)
		}
		return v
	}
	for n := 1; n <= 130; n++ {
		src := fill(n)
		for _, k := range []struct {
			dir       string
			got, want func(dst, src []T)
		}{{"fwd", f.fwd, or.fwd}, {"inv", f.inv, or.inv}} {
			if k.got == nil {
				continue
			}
			got, want := fill(n), fill(n)
			k.got(got, src)
			k.want(want, src)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("%s %s n=%d: sample %d is %v, step-at-a-time gives %v", name, k.dir, n, i, got[i], want[i])
			}
		}
	}
	if f.fwdCols == nil {
		return
	}
	for w := 1; w <= 33; w++ {
		for h := 1; h <= 130; h++ {
			stride := w + 1 + rng.Intn(7)
			src := fill(stride * h)
			st := Strategy{VertMode: VertBlocked, BlockWidth: w, Workers: 1}
			for _, fwd := range []bool{true, false} {
				got := append([]T(nil), src...)
				want := append([]T(nil), src...)
				vertical(plane[T]{got, w, h, stride}, w, h, st, f, fwd)
				vertical(plane[T]{want, w, h, stride}, w, h, st, or, fwd)
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("%s cols fwd=%v %dx%d stride %d: sample %d (row %d col %d) is %v, step-at-a-time gives %v",
						name, fwd, w, h, stride, i, i/stride, i%stride, got[i], want[i])
				}
			}
		}
	}
}

// vertical runs one vertical level pass over the cw x ch region of p.
func vertical[T sample](p plane[T], cw, ch int, st Strategy, f *filter[T], fwd bool) {
	j := startLevels(p, st, f, fwd)
	j.cw, j.ch = cw, ch
	j.vertical()
}

func TestLiftingMatchesStepwise(t *testing.T) {
	ints := func(r *rand.Rand) int32 { return int32(r.Intn(1<<16)) - 1<<15 }
	floats := func(r *rand.Rand) float64 { return r.Float64()*512 - 256 }
	checkKernels(t, "5/3", &rev53, &oracle53, ints)
	checkKernels(t, "9/7", &irr97, &oracle97, floats)
	checkKernels(t, "lin53", &lin53, &oracleLin, floats)
}

// FuzzLifting drives whole transforms over fuzzer-chosen geometry, strategy
// and samples: the production kernels must equal the step-at-a-time oracle
// in both directions for both filters, and the 5/3 must invert exactly.
func FuzzLifting(f *testing.F) {
	f.Add(uint8(5), uint8(3), uint8(2), uint8(3), false, uint8(2), uint8(1), []byte{1, 200, 3, 44, 5})
	f.Add(uint8(33), uint8(65), uint8(0), uint8(5), true, uint8(7), uint8(3), []byte{0xFF, 0x7F, 0x80, 0})
	f.Add(uint8(64), uint8(48), uint8(24), uint8(4), true, uint8(31), uint8(2), []byte("lifting"))
	f.Add(uint8(2), uint8(4), uint8(1), uint8(2), false, uint8(0), uint8(4), []byte{9})
	f.Fuzz(func(t *testing.T, w8, h8, pad8, lv8 uint8, blocked bool, bw8, wk8 uint8, data []byte) {
		w, h := 1+int(w8)%80, 1+int(h8)%80
		stride := w + int(pad8)%32
		levels := int(lv8) % 6
		st := Strategy{VertMode: VertNaive, BlockWidth: 1 + int(bw8)%40, Workers: 1 + int(wk8)%4}
		if blocked {
			st.VertMode = VertBlocked
		}
		if wk8&4 != 0 {
			st.Scratch = NewScratch(st.Workers)
		}
		ints := make([]int32, stride*h)
		floats := make([]float64, stride*h)
		for i := range ints {
			if len(data) > 0 {
				b := data[i%len(data)]
				ints[i] = int32(int8(b^byte(i))) * int32(1+i%7)
				floats[i] = float64(ints[i]) + float64(b)/256
			}
		}
		for _, fwd := range []bool{true, false} {
			got := append([]int32(nil), ints...)
			want := append([]int32(nil), ints...)
			run(plane[int32]{got, w, h, stride}, levels, st, &rev53, fwd, nil)
			run(plane[int32]{want, w, h, stride}, levels, st, &oracle53, fwd, nil)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("5/3 fwd=%v %+v: sample %d is %d, step-at-a-time gives %d", fwd, st, i, got[i], want[i])
			}
			if fwd {
				run(plane[int32]{got, w, h, stride}, levels, st, &rev53, false, nil)
				if i := firstDiff(got, ints); i >= 0 {
					t.Fatalf("5/3 round trip %+v: sample %d is %d, was %d", st, i, got[i], ints[i])
				}
			}
			gotF := append([]float64(nil), floats...)
			wantF := append([]float64(nil), floats...)
			run(plane[float64]{gotF, w, h, stride}, levels, st, &irr97, fwd, nil)
			run(plane[float64]{wantF, w, h, stride}, levels, st, &oracle97, fwd, nil)
			if i := firstDiff(gotF, wantF); i >= 0 {
				t.Fatalf("9/7 fwd=%v %+v: sample %d is %g, step-at-a-time gives %g", fwd, st, i, gotF[i], wantF[i])
			}
		}
	})
}

// TestScratchTransformAllocs: once a Scratch has filtered the largest plane,
// transforms of any shape, kernel, direction and vertical mode on it allocate
// nothing, at every worker count — the level barriers dispatch the Scratch's
// bound jobs instead of building a closure per level.
func TestScratchTransformAllocs(t *testing.T) {
	pool := core.NewPool(4)
	defer pool.Close()
	big, small := randomImage(96, 80, 1), randomImage(37, 61, 2)
	fbig, fsmall := FromImage(big), FromImage(small)
	for _, workers := range []int{1, 2, 4} {
		for _, mode := range []VertMode{VertNaive, VertBlocked} {
			st := Strategy{VertMode: mode, BlockWidth: 16, Workers: workers, Scratch: new(Scratch), Pool: pool}
			cycle := func() {
				for _, im := range []*raster.Image{big, small} {
					Forward53(im, 3, st)
					Inverse53(im, 3, st)
				}
				for _, p := range []*FPlane{fbig, fsmall} {
					Forward97(p, 4, st)
					Inverse97(p, 4, st)
				}
			}
			cycle() // bind the jobs, size the buffers
			if n := testing.AllocsPerRun(10, cycle); n != 0 {
				t.Errorf("workers %d %v: %.1f allocations per cycle of 8 transforms, want 0", workers, mode, n)
			}
		}
	}
}
