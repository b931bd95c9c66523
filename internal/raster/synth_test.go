package raster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"
)

// imageDigest is the SHA-256 of an image's dimensions and samples, row by row,
// little-endian.
func imageDigest(im *Image) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range []int{im.Width, im.Height} {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	for y := 0; y < im.Height; y++ {
		for _, v := range im.Row(y) {
			binary.LittleEndian.PutUint32(b[:], uint32(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSyntheticDigest pins the synthetic generators' output bit for bit at
// several sizes (one row, fewer rows than workers, odd sizes, the paper's
// 256-Kpixel point) under one and four procs: every codec golden is a digest
// of an encode of these images, so any change to how they are computed must
// leave each sample where it was.
func TestSyntheticDigest(t *testing.T) {
	cases := []struct {
		name string
		gen  func() *Image
		want string
	}{
		{"Synthetic 1x1", func() *Image { return Synthetic(1, 1, 1) },
			"d9c48ea238b63231abb57577eb7ca484f99e7433105d494b093ffb7112e3f457"},
		{"Synthetic 5x3", func() *Image { return Synthetic(5, 3, 2) },
			"ace9ed6a99b96e391c3279dfa5fbc1887b8b2d09ec7a41dacf482ed7ed90b2cd"},
		{"Synthetic 64x64", func() *Image { return Synthetic(64, 64, 3) },
			"83aaf86ac4ffac062657cf8124da4c6f847957d5dfc751ce6f788e7374f1dbb7"},
		{"Synthetic 301x199", func() *Image { return Synthetic(301, 199, 4) },
			"b81ed2ede581a0ec40336824deb71c29ea7536adc2b7657eb3aacabe1c23d136"},
		{"Synthetic 640x17", func() *Image { return Synthetic(640, 17, 5) },
			"0dd397857b94eba7666abbae6b5beeda8d35c6307a1d441f82228b64d0938316"},
		{"KPixelImage 1", func() *Image { return KPixelImage(1, 6) },
			"8126007f642f5e85605a6f06c11fb25b1e51207f69f2febbf115d029053e81b6"},
		{"KPixelImage 256", func() *Image { return KPixelImage(256, 7) },
			"9d76dfe619631b44837aaa3340df0aeb4664b480633dc16b6833570c66b4a4ee"},
		{"SyntheticRadiograph 1x1", func() *Image { return SyntheticRadiograph(1, 1, 8) },
			"5ffa8df362c8c2ab9e0802221278f60cdd46afadff45736dfe8cce5ab2ac3a9e"},
		{"SyntheticRadiograph 257x129", func() *Image { return SyntheticRadiograph(257, 129, 9) },
			"c49184444c8fcec86188d2cb5ffbe1de85aa0f70069258c259de24da0c798e92"},
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			if got := imageDigest(c.gen()); got != c.want {
				t.Errorf("GOMAXPROCS %d: %s digest %s, want %s", procs, c.name, got, c.want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
