package jp2k

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/raster"
)

// goldenHash is the pinned digest of one golden case. The values were
// computed on the PR 4 tree (commit aad6dc5) and must never change: any
// refactor of the coding path — the tier-1 flag-word machinery, the MQ coder
// fast paths, parallel tier-2 — must reproduce these streams bit for bit.
// A legitimate format change (new marker syntax, different defaults) is the
// only reason to regenerate them; run the test with -run TestGoldenHashes -v
// after deleting a value to print the replacement.
type goldenHash struct {
	name string
	want string
	gen  func(t *testing.T, workers int) []byte
}

func hashBytes(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:16])
}

func goldenGray() *raster.Image { return raster.Synthetic(230, 190, 99) }

func goldenColor() *raster.Planar {
	return raster.RGB(
		raster.Synthetic(120, 88, 7),
		raster.Synthetic(120, 88, 8),
		raster.Synthetic(120, 88, 9),
	)
}

func goldenCases() []goldenHash {
	return []goldenHash{
		{
			name: "gray-53-lossless",
			want: "aca8b1676e0c806a79cc853fbbf9455b",
			gen: func(t *testing.T, w int) []byte {
				cs, _, err := Encode(goldenGray(), Options{Kernel: dwt.Rev53, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				return cs
			},
		},
		{
			name: "gray-53-tiled",
			want: "f2bcacd868c7503f9c63b5f38f431d73",
			gen: func(t *testing.T, w int) []byte {
				cs, _, err := Encode(goldenGray(), Options{
					Kernel: dwt.Rev53, TileW: 64, TileH: 96, CBW: 32, CBH: 16, Levels: 3, Workers: w,
				})
				if err != nil {
					t.Fatal(err)
				}
				return cs
			},
		},
		{
			name: "gray-97-layered",
			want: "ece2ee24a41479f73e45feea4d4ec645",
			gen: func(t *testing.T, w int) []byte {
				cs, _, err := Encode(goldenGray(), Options{
					Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 1.0}, Workers: w,
				})
				if err != nil {
					t.Fatal(err)
				}
				return cs
			},
		},
		{
			name: "gray-97-roi",
			want: "a444fb17aee6477f4a8cfca4bf477cfc",
			gen: func(t *testing.T, w int) []byte {
				cs, _, err := Encode(goldenGray(), Options{
					Kernel: dwt.Irr97, LayerBPP: []float64{0.5},
					ROI: &ROIRect{X0: 30, Y0: 20, X1: 120, Y1: 100}, Workers: w,
				})
				if err != nil {
					t.Fatal(err)
				}
				return cs
			},
		},
		{
			name: "color-53-mct",
			want: "4a5a24c72c9c72395e2403208430f167",
			gen: func(t *testing.T, w int) []byte {
				cs, _, err := EncodePlanar(goldenColor(), Options{Kernel: dwt.Rev53, MCT: true, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				return cs
			},
		},
		{
			name: "color-97-mct-layered",
			want: "67d2eb2b1dbcf7c8a0de49e3a5d7a666",
			gen: func(t *testing.T, w int) []byte {
				cs, _, err := EncodePlanar(goldenColor(), Options{
					Kernel: dwt.Irr97, MCT: true, LayerBPP: []float64{1.0}, Workers: w,
				})
				if err != nil {
					t.Fatal(err)
				}
				return cs
			},
		},
		{
			name: "gray-97-region-decode",
			want: "47dd2161cb667b779b40a43dc649f8d9",
			gen: func(t *testing.T, w int) []byte {
				im := raster.Synthetic(256, 256, 41)
				cs, _, err := Encode(im, Options{
					Kernel: dwt.Irr97, LayerBPP: []float64{1.0}, TileW: 64, TileH: 64, Workers: w,
				})
				if err != nil {
					t.Fatal(err)
				}
				out, err := Decode(cs, DecodeOptions{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				reg, err := decodeRegion(nil, cs, Rect{X0: 50, Y0: 70, X1: 200, Y1: 130}, DecodeOptions{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				buf := append([]byte{}, cs...)
				for _, p := range []*raster.Image{out, reg} {
					for _, v := range p.Pix {
						buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
					}
				}
				return buf
			},
		},
	}
}

// TestGoldenHashes is the bit-identity gate: encoded streams (and region
// decodes) must hash to the PR 4 values for every worker count. The cross-
// worker determinism tests prove the output does not depend on Workers; this
// test pins WHAT that output is, so a coding-path change that is merely
// self-consistent (encoder and decoder wrong in compensating ways) still
// fails.
func TestGoldenHashes(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			for _, w := range []int{1, 2, 4, 8} {
				got := hashBytes(gc.gen(t, w))
				if gc.want == "" {
					t.Logf("workers=%d hash=%s", w, got)
					continue
				}
				if got != gc.want {
					t.Fatalf("workers=%d: hash %s, want %s — coded output changed", w, got, gc.want)
				}
			}
		})
	}
}
