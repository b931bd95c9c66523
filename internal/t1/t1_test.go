package t1

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pj2k/internal/dwt"
)

var bandTypes = []dwt.BandType{dwt.LL, dwt.HL, dwt.LH, dwt.HH}

func randBlock(w, h int, maxMag int32, density float64, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]int32, w*h)
	for i := range data {
		if rng.Float64() < density {
			v := rng.Int31n(maxMag + 1)
			if rng.Intn(2) == 1 {
				v = -v
			}
			data[i] = v
		}
	}
	return data
}

func TestRoundTripExact(t *testing.T) {
	sizes := [][2]int{{1, 1}, {3, 3}, {4, 4}, {5, 7}, {8, 8}, {16, 16}, {13, 4}, {4, 13}, {32, 32}, {64, 64}, {64, 3}, {3, 64}}
	for _, sz := range sizes {
		for _, band := range bandTypes {
			for _, density := range []float64{0.05, 0.5, 1.0} {
				data := randBlock(sz[0], sz[1], 1000, density, int64(sz[0]*1000+sz[1])+int64(band))
				eb := encodeBlock(data, sz[0], sz[1], sz[0], band)
				got, err := decodeBlock(eb, len(eb.Passes))
				if err != nil {
					t.Fatal(err)
				}
				for i := range data {
					if got[i] != data[i] {
						t.Fatalf("size %v band %v density %.2f: sample %d got %d want %d",
							sz, band, density, i, got[i], data[i])
					}
				}
			}
		}
	}
}

func TestAllZeroBlock(t *testing.T) {
	data := make([]int32, 8*8)
	eb := encodeBlock(data, 8, 8, 8, dwt.HH)
	if eb.NumBitplanes != 0 || len(eb.Passes) != 0 || len(eb.Data) != 0 {
		t.Fatalf("zero block: nbp=%d passes=%d data=%d", eb.NumBitplanes, len(eb.Passes), len(eb.Data))
	}
	got, err := decodeBlock(eb, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		if v != 0 {
			t.Fatal("zero block decoded nonzero")
		}
	}
}

func TestSingleCoefficient(t *testing.T) {
	for _, v := range []int32{1, -1, 2, 255, -256, 1 << 20} {
		data := make([]int32, 16)
		data[5] = v
		eb := encodeBlock(data, 4, 4, 4, dwt.LH)
		got, err := decodeBlock(eb, len(eb.Passes))
		if err != nil {
			t.Fatal(err)
		}
		if got[5] != v {
			t.Fatalf("v=%d: got %d", v, got[5])
		}
		for i := range got {
			if i != 5 && got[i] != 0 {
				t.Fatalf("v=%d: spurious nonzero at %d", v, i)
			}
		}
	}
}

func TestStrideInput(t *testing.T) {
	// The encoder must honour the stride parameter.
	w, h, stride := 6, 5, 11
	flat := randBlock(w, h, 500, 0.7, 42)
	strided := make([]int32, stride*h)
	for y := 0; y < h; y++ {
		copy(strided[y*stride:y*stride+w], flat[y*w:(y+1)*w])
	}
	a := encodeBlock(flat, w, h, w, dwt.HL)
	b := encodeBlock(strided, w, h, stride, dwt.HL)
	if len(a.Data) != len(b.Data) {
		t.Fatalf("stride changed output: %d vs %d bytes", len(a.Data), len(b.Data))
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("stride changed output bytes")
		}
	}
}

func TestPassCountMatchesFormula(t *testing.T) {
	data := randBlock(32, 32, 4095, 0.9, 7)
	eb := encodeBlock(data, 32, 32, 32, dwt.LL)
	if want := TotalPasses(eb.NumBitplanes); len(eb.Passes) != want {
		t.Fatalf("passes %d, want %d for %d planes", len(eb.Passes), want, eb.NumBitplanes)
	}
}

func TestRatesMonotone(t *testing.T) {
	data := randBlock(64, 64, 30000, 0.8, 3)
	eb := encodeBlock(data, 64, 64, 64, dwt.HH)
	prev := 0
	for k, p := range eb.Passes {
		if p.Rate < prev {
			t.Fatalf("pass %d rate %d < previous %d", k, p.Rate, prev)
		}
		if p.Rate > len(eb.Data) {
			t.Fatalf("pass %d rate %d exceeds segment %d", k, p.Rate, len(eb.Data))
		}
		prev = p.Rate
	}
	if eb.Passes[len(eb.Passes)-1].Rate != len(eb.Data) {
		t.Fatal("final pass rate must equal segment length")
	}
}

func TestTruncatedDecodeImproves(t *testing.T) {
	// Decoding more passes must not increase MSE (distortion is monotone
	// non-increasing in the pass count).
	data := randBlock(32, 32, 10000, 0.6, 11)
	eb := encodeBlock(data, 32, 32, 32, dwt.LH)
	mse := func(got []int32) float64 {
		var s float64
		for i := range data {
			d := float64(got[i] - data[i])
			s += d * d
		}
		return s / float64(len(data))
	}
	prev := math.Inf(1)
	for np := 0; np <= len(eb.Passes); np += 3 {
		got, err := decodeBlock(eb, np)
		if err != nil {
			t.Fatal(err)
		}
		m := mse(got)
		if m > prev*1.001 {
			t.Fatalf("MSE rose from %.1f to %.1f at %d passes", prev, m, np)
		}
		prev = m
	}
	if prev != 0 {
		t.Fatalf("full decode MSE %.3f != 0", prev)
	}
}

func TestDistortionDeltasPositiveTotal(t *testing.T) {
	data := randBlock(32, 32, 5000, 0.5, 13)
	eb := encodeBlock(data, 32, 32, 32, dwt.HL)
	var total float64
	for _, p := range eb.Passes {
		total += p.DistDelta
	}
	// Total distortion reduction must equal the initial distortion (sum of
	// squared magnitudes) because the final reconstruction is exact.
	var want float64
	for _, v := range data {
		want += float64(v) * float64(v)
	}
	if math.Abs(total-want)/want > 1e-9 {
		t.Fatalf("sum of pass distortion deltas %.1f, want %.1f", total, want)
	}
}

func TestEveryPrefixDecodable(t *testing.T) {
	// Every pass count must decode without error and approximate the
	// original no worse than the midpoint guarantee for its depth.
	data := randBlock(16, 16, 4000, 0.7, 17)
	eb := encodeBlock(data, 16, 16, 16, dwt.HH)
	for np := 0; np <= len(eb.Passes); np++ {
		if _, err := decodeBlock(eb, np); err != nil {
			t.Fatalf("npasses=%d: %v", np, err)
		}
	}
	if _, err := decodeBlock(eb, len(eb.Passes)+1); err == nil {
		t.Fatal("want error for excess pass count")
	}
}

func TestBandContextsDiffer(t *testing.T) {
	// The same data coded as HL vs HH should (almost always) produce
	// different bytes because the context tables differ.
	data := randBlock(32, 32, 1000, 0.4, 19)
	a := encodeBlock(data, 32, 32, 32, dwt.HL)
	b := encodeBlock(data, 32, 32, 32, dwt.HH)
	same := len(a.Data) == len(b.Data)
	if same {
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("HL and HH coding produced identical streams; contexts ignored?")
	}
}

func TestCompressionBeatsRaw(t *testing.T) {
	// Sparse natural-ish data must compress well below raw size.
	data := randBlock(64, 64, 3, 0.05, 23)
	eb := encodeBlock(data, 64, 64, 64, dwt.HH)
	raw := 64 * 64 * 2 // 2 bytes per sample baseline
	if len(eb.Data) > raw/8 {
		t.Fatalf("sparse block coded to %d bytes; raw is %d", len(eb.Data), raw)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(w8, h8 uint8, seed int64, band uint8, dens uint8) bool {
		w, h := 1+int(w8%64), 1+int(h8%64)
		density := 0.05 + float64(dens%90)/100
		data := randBlock(w, h, 2000, density, seed)
		eb := encodeBlock(data, w, h, w, bandTypes[band%4])
		got, err := decodeBlock(eb, len(eb.Passes))
		if err != nil {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeMagnitudes(t *testing.T) {
	// 30-bit magnitudes exercise deep bit-plane counts.
	data := []int32{1 << 29, -(1<<29 + 12345), 3, 0}
	eb := encodeBlock(data, 2, 2, 2, dwt.LL)
	if eb.NumBitplanes != 30 {
		t.Fatalf("nbp = %d", eb.NumBitplanes)
	}
	got, err := decodeBlock(eb, len(eb.Passes))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("sample %d: got %d want %d", i, got[i], data[i])
		}
	}
}

// encodeBlock codes one block with a fresh Coder.
func encodeBlock(data []int32, w, h, stride int, band dwt.BandType) *EncodedBlock {
	return new(Coder).Encode(data, w, h, stride, band)
}

// decodeBlock decodes the first npasses coding passes of eb with a fresh
// BlockDecoder into a new eb.W x eb.H block. With every pass decoded the
// result is exactly the encoder's input; fewer passes leave the midpoint of
// each sample's remaining uncertainty interval.
func decodeBlock(eb *EncodedBlock, npasses int) ([]int32, error) {
	if npasses < 0 || npasses > len(eb.Passes) {
		return nil, fmt.Errorf("npasses %d out of range [0,%d]", npasses, len(eb.Passes))
	}
	in := blockIn(eb, npasses)
	out := make([]int32, eb.W*eb.H)
	if _, err := new(BlockDecoder).DecodeInto(&in, &Dest{Int: out, Stride: eb.W}, false); err != nil {
		return nil, err
	}
	return out, nil
}
