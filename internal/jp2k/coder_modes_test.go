package jp2k

import (
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/faultinject"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// coderCombos is the mode matrix the end-to-end tests sweep: each style
// alone, the standard fast pairing (bypass+termall), and everything at once.
var coderCombos = []struct {
	name  string
	coder CoderOptions
}{
	{"bypass", CoderOptions{Bypass: true}},
	{"termall", CoderOptions{TermAll: true}},
	{"reset", CoderOptions{ResetCtx: true}},
	{"causal", CoderOptions{Causal: true}},
	{"bypass-termall", CoderOptions{Bypass: true, TermAll: true}},
	{"all", CoderOptions{Bypass: true, TermAll: true, ResetCtx: true, Causal: true}},
}

// TestCoderModesLosslessRoundTrip: every mode combo must stay lossless for
// every worker count — the modes change how bits are coded and segmented,
// never what they reconstruct to.
func TestCoderModesLosslessRoundTrip(t *testing.T) {
	im := raster.Synthetic(230, 190, 99)
	for _, c := range coderCombos {
		t.Run(c.name, func(t *testing.T) {
			for _, w := range []int{1, 2, 4, 8} {
				cs, _, err := Encode(im, Options{Kernel: dwt.Rev53, Workers: w, Coder: c.coder})
				if err != nil {
					t.Fatalf("w=%d: encode: %v", w, err)
				}
				out, err := Decode(cs, DecodeOptions{Workers: w})
				if err != nil {
					t.Fatalf("w=%d: decode: %v", w, err)
				}
				for i := range im.Pix {
					if im.Pix[i] != out.Pix[i] {
						t.Fatalf("w=%d: pixel %d: got %d want %d", w, i, out.Pix[i], im.Pix[i])
					}
				}
			}
		})
	}
}

// TestCoderModesLossyLayered drives the terminated modes through PCRD rate
// allocation (where bypass restricts truncation points to exact segment
// boundaries) and layer-truncated decoding.
func TestCoderModesLossyLayered(t *testing.T) {
	im := raster.Synthetic(230, 190, 99)
	for _, c := range coderCombos {
		t.Run(c.name, func(t *testing.T) {
			cs, _, err := Encode(im, Options{
				Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 1.0},
				TileW: 64, TileH: 96, Workers: 4, Coder: c.coder,
			})
			if err != nil {
				t.Fatal(err)
			}
			out, err := Decode(cs, DecodeOptions{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			mse := 0.0
			for i := range im.Pix {
				d := float64(im.Pix[i] - out.Pix[i])
				mse += d * d
			}
			if mse /= float64(len(im.Pix)); mse > 100 {
				t.Fatalf("mse %.2f at 1 bpp", mse)
			}
			if _, err := Decode(cs, DecodeOptions{MaxLayers: 1}); err != nil {
				t.Fatalf("layer-truncated decode: %v", err)
			}
			if _, err := Decode(cs, DecodeOptions{DiscardLevels: 2}); err != nil {
				t.Fatalf("resolution-truncated decode: %v", err)
			}
		})
	}
}

// TestCoderModesResilienceInterplay combines every coder combo with the full
// resilience tool set: a clean stream must decode exactly with an empty
// damage report, and a corrupted tile body must conceal, not error.
func TestCoderModesResilienceInterplay(t *testing.T) {
	im := raster.Synthetic(96, 96, 5)
	for _, c := range coderCombos {
		t.Run(c.name, func(t *testing.T) {
			cs, _, err := Encode(im, Options{
				Kernel: dwt.Rev53, TileW: 48, TileH: 48, Coder: c.coder,
				Resilience: ResilienceOptions{SOP: true, EPH: true, SegSymbols: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			dec := NewDecoder()
			clean, err := dec.Decode(cs, DecodeOptions{Resilient: true})
			if err != nil {
				t.Fatalf("clean resilient decode: %v", err)
			}
			if dec.Damage().Damaged() {
				t.Fatalf("clean stream reported damage: %s", dec.Damage())
			}
			for i := range im.Pix {
				if clean.Pix[i] != im.Pix[i] {
					t.Fatalf("clean resilient decode not lossless at %d", i)
				}
			}
			spans := faultinject.TileBodies(cs)
			bad := faultinject.BitFlip(cs, spans[len(spans)-1], 16, 123)
			if _, err := dec.Decode(bad, DecodeOptions{Resilient: true}); err != nil {
				t.Fatalf("corrupt body must conceal, got error: %v", err)
			}
		})
	}
}

// TestCoderModesSignalled pins the COD signalling loop: the decoder learns
// the modes from the codestream alone, and the parsed Params reproduce the
// encoder's options bit for bit.
func TestCoderModesSignalled(t *testing.T) {
	im := raster.Synthetic(64, 64, 3)
	for _, c := range coderCombos {
		cs, _, err := Encode(im, Options{Kernel: dwt.Rev53, Coder: c.coder})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		p, _, err := t2.ScanCodestream(t2.BytesSource(cs))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p.Bypass != c.coder.Bypass || p.ResetCtx != c.coder.ResetCtx ||
			p.TermAll != c.coder.TermAll || p.Causal != c.coder.Causal {
			t.Fatalf("%s: COD round-trip lost modes: got %+v", c.name, p.CoderModes())
		}
		if _, err := t2.BuildIndex(t2.BytesSource(cs)); err != nil {
			t.Fatalf("%s: index over terminated segments: %v", c.name, err)
		}
	}
}

// modeGoldenCases pins the coded output of the new modes the same way
// goldenCases pins the defaults: any change to the mode coding paths that
// alters the stream must be a deliberate format change.
func modeGoldenCases() []goldenHash {
	enc := func(o Options) func(t *testing.T, w int) []byte {
		return func(t *testing.T, w int) []byte {
			o.Workers = w
			cs, _, err := Encode(goldenGray(), o)
			if err != nil {
				t.Fatal(err)
			}
			return cs
		}
	}
	return []goldenHash{
		{
			name: "gray-53-bypass",
			want: "8328ad7ee9d3fa8d6c289eb1ffe86b92",
			gen:  enc(Options{Kernel: dwt.Rev53, Coder: CoderOptions{Bypass: true}}),
		},
		{
			name: "gray-53-termall-reset",
			want: "57c18035cadc93b75275828cbff1d041",
			gen:  enc(Options{Kernel: dwt.Rev53, Coder: CoderOptions{TermAll: true, ResetCtx: true}}),
		},
		{
			name: "gray-53-allmodes-tiled",
			want: "123b1c370fcc461ef850dd65cf9a3e59",
			gen: enc(Options{
				Kernel: dwt.Rev53, TileW: 64, TileH: 96, CBW: 32, CBH: 16, Levels: 3,
				Coder: CoderOptions{Bypass: true, TermAll: true, ResetCtx: true, Causal: true},
			}),
		},
		{
			name: "gray-97-layered-bypass",
			want: "a317a1619eda88ee5bd7fb26a53cc95a",
			gen: enc(Options{
				Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 1.0},
				Coder: CoderOptions{Bypass: true},
			}),
		},
		{
			name: "gray-97-layered-bypass-termall",
			want: "2aed1aee316a3917d4041f968c60979c",
			gen: enc(Options{
				Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 1.0},
				Coder: CoderOptions{Bypass: true, TermAll: true},
			}),
		},
	}
}

// TestCoderModesGoldenHashes is the bit-identity gate for the mode coding
// paths, mirroring TestGoldenHashes: same stream for every worker count,
// pinned to the values of the tree that introduced the modes.
func TestCoderModesGoldenHashes(t *testing.T) {
	for _, gc := range modeGoldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			for _, w := range []int{1, 2, 4, 8} {
				got := hashBytes(gc.gen(t, w))
				if gc.want == "" {
					t.Logf("workers=%d hash=%s", w, got)
					continue
				}
				if got != gc.want {
					t.Fatalf("workers=%d: hash %s, want %s — mode coded output changed", w, got, gc.want)
				}
			}
		})
	}
}
