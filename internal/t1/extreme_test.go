package t1

import (
	"testing"

	"pj2k/internal/dwt"
)

// patterns that stress specific coder paths: run-length mode (sparse),
// sign contexts (alternating signs), refinement (dense similar magnitudes).
func patternBlock(kind string, w, h int) []int32 {
	data := make([]int32, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			switch kind {
			case "checker":
				if (x+y)&1 == 0 {
					data[i] = 100
				} else {
					data[i] = -100
				}
			case "stripesH":
				if y&1 == 0 {
					data[i] = 77
				}
			case "stripesV":
				if x&1 == 0 {
					data[i] = -55
				}
			case "singleColumn":
				if x == w/2 {
					data[i] = 1 << 15
				}
			case "gradient":
				data[i] = int32(x*y) - int32(w*h/2)
			case "maxdense":
				data[i] = int32((x*131+y*137)%2048) - 1024
			}
		}
	}
	return data
}

func TestExtremePatterns(t *testing.T) {
	kinds := []string{"checker", "stripesH", "stripesV", "singleColumn", "gradient", "maxdense"}
	for _, kind := range kinds {
		for _, band := range bandTypes {
			for _, sz := range [][2]int{{4, 4}, {17, 5}, {64, 64}} {
				data := patternBlock(kind, sz[0], sz[1])
				eb := encodeBlock(data, sz[0], sz[1], sz[0], band)
				got, err := decodeBlock(eb, len(eb.Passes))
				if err != nil {
					t.Fatalf("%s %v %v: %v", kind, band, sz, err)
				}
				for i := range data {
					if got[i] != data[i] {
						t.Fatalf("%s %v %v: sample %d got %d want %d", kind, band, sz, i, got[i], data[i])
					}
				}
			}
		}
	}
}

func TestDecodeDeterministic(t *testing.T) {
	data := patternBlock("maxdense", 32, 32)
	eb := encodeBlock(data, 32, 32, 32, dwt.HL)
	a, err := decodeBlock(eb, len(eb.Passes)/2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := decodeBlock(eb, len(eb.Passes)/2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("decoder is not deterministic")
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	data := patternBlock("gradient", 48, 24)
	a := encodeBlock(data, 48, 24, 48, dwt.LH)
	b := encodeBlock(data, 48, 24, 48, dwt.LH)
	if len(a.Data) != len(b.Data) {
		t.Fatal("encoder is not deterministic")
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("encoder output differs between runs")
		}
	}
}

func TestPassCountStaysVLCRepresentable(t *testing.T) {
	// Tier-2's pass-count VLC tops out at 164 per packet; a single-layer
	// stream sends all passes of a block in one packet, so the encoder must
	// never exceed that for plausible magnitudes (30 bit-planes -> 88).
	data := patternBlock("singleColumn", 64, 64) // contains 1<<15
	eb := encodeBlock(data, 64, 64, 64, dwt.HH)
	if len(eb.Passes) > 164 {
		t.Fatalf("%d passes exceed the VLC limit", len(eb.Passes))
	}
}
