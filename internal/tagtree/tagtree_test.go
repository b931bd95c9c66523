package tagtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pj2k/internal/bitio"
)

// roundTrip encodes threshold queries for every leaf in a scan pattern and
// checks the decoder reaches identical conclusions.
func roundTrip(t *testing.T, ncols, nrows int, values []int, maxThr int) {
	t.Helper()
	enc := New(ncols, nrows)
	for y := 0; y < nrows; y++ {
		for x := 0; x < ncols; x++ {
			enc.SetValue(x, y, values[y*ncols+x])
		}
	}
	w := bitio.NewWriter()
	// Emulate tier-2: sweep thresholds outer, leaves inner.
	for thr := 1; thr <= maxThr; thr++ {
		for y := 0; y < nrows; y++ {
			for x := 0; x < ncols; x++ {
				enc.Encode(w, x, y, thr)
			}
		}
	}
	dec := New(ncols, nrows)
	r := bitio.NewReader(w.Bytes())
	for thr := 1; thr <= maxThr; thr++ {
		for y := 0; y < nrows; y++ {
			for x := 0; x < ncols; x++ {
				got, err := dec.Decode(r, x, y, thr)
				if err != nil {
					t.Fatalf("decode (%d,%d) thr %d: %v", x, y, thr, err)
				}
				want := values[y*ncols+x] < thr
				if got != want {
					t.Fatalf("(%d,%d) thr %d: got %v want %v (values %v)", x, y, thr, got, want, values)
				}
			}
		}
	}
}

func TestSingleLeaf(t *testing.T) {
	roundTrip(t, 1, 1, []int{3}, 6)
}

func TestSmallGrids(t *testing.T) {
	roundTrip(t, 2, 2, []int{0, 1, 2, 3}, 5)
	roundTrip(t, 3, 1, []int{2, 0, 1}, 4)
	roundTrip(t, 1, 4, []int{1, 1, 0, 2}, 4)
	roundTrip(t, 5, 3, []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9}, 11)
}

func TestRandomGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		nc, nr := 1+rng.Intn(9), 1+rng.Intn(9)
		values := make([]int, nc*nr)
		maxv := 0
		for i := range values {
			values[i] = rng.Intn(8)
			if values[i] > maxv {
				maxv = values[i]
			}
		}
		roundTrip(t, nc, nr, values, maxv+2)
	}
}

func TestEncodeDecodeValue(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		nc, nr := 1+rng.Intn(6), 1+rng.Intn(6)
		values := make([]int, nc*nr)
		for i := range values {
			values[i] = rng.Intn(10)
		}
		enc := New(nc, nr)
		for y := 0; y < nr; y++ {
			for x := 0; x < nc; x++ {
				enc.SetValue(x, y, values[y*nc+x])
			}
		}
		w := bitio.NewWriter()
		for y := 0; y < nr; y++ {
			for x := 0; x < nc; x++ {
				enc.EncodeValue(w, x, y)
			}
		}
		dec := New(nc, nr)
		r := bitio.NewReader(w.Bytes())
		for y := 0; y < nr; y++ {
			for x := 0; x < nc; x++ {
				v, err := dec.DecodeValue(r, x, y)
				if err != nil {
					t.Fatal(err)
				}
				if v != values[y*nc+x] {
					t.Fatalf("(%d,%d): got %d want %d", x, y, v, values[y*nc+x])
				}
			}
		}
	}
}

func TestIncrementalThresholds(t *testing.T) {
	// Interleaved per-leaf queries at increasing thresholds, the tier-2
	// packet pattern: layer loop outer, block loop inner, shared state.
	values := []int{2, 0, 3, 1}
	enc := New(2, 2)
	enc.SetValue(0, 0, 2)
	enc.SetValue(1, 0, 0)
	enc.SetValue(0, 1, 3)
	enc.SetValue(1, 1, 1)
	w := bitio.NewWriter()
	type q struct{ x, y, thr int }
	var queries []q
	for thr := 1; thr <= 4; thr++ {
		queries = append(queries, q{0, 0, thr}, q{1, 0, thr}, q{0, 1, thr}, q{1, 1, thr})
	}
	for _, qq := range queries {
		enc.Encode(w, qq.x, qq.y, qq.thr)
	}
	dec := New(2, 2)
	r := bitio.NewReader(w.Bytes())
	for _, qq := range queries {
		got, err := dec.Decode(r, qq.x, qq.y, qq.thr)
		if err != nil {
			t.Fatal(err)
		}
		if want := values[qq.y*2+qq.x] < qq.thr; got != want {
			t.Fatalf("query %+v: got %v want %v", qq, got, want)
		}
	}
}

func TestResetReuse(t *testing.T) {
	tr := New(3, 3)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			tr.SetValue(x, y, x+y)
		}
	}
	w1 := bitio.NewWriter()
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			tr.EncodeValue(w1, x, y)
		}
	}
	tr.Reshape(3, 3)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			tr.SetValue(x, y, x+y)
		}
	}
	w2 := bitio.NewWriter()
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			tr.EncodeValue(w2, x, y)
		}
	}
	a, b := w1.Bytes(), w2.Bytes()
	if len(a) != len(b) {
		t.Fatalf("reset changed encoding length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("reset changed encoding")
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(nc8, nr8 uint8, raw []byte) bool {
		nc, nr := 1+int(nc8%8), 1+int(nr8%8)
		values := make([]int, nc*nr)
		maxv := 0
		for i := range values {
			if len(raw) > 0 {
				values[i] = int(raw[i%len(raw)]) % 12
			}
			if values[i] > maxv {
				maxv = values[i]
			}
		}
		enc := New(nc, nr)
		for y := 0; y < nr; y++ {
			for x := 0; x < nc; x++ {
				enc.SetValue(x, y, values[y*nc+x])
			}
		}
		w := bitio.NewWriter()
		for thr := 1; thr <= maxv+1; thr++ {
			for y := 0; y < nr; y++ {
				for x := 0; x < nc; x++ {
					enc.Encode(w, x, y, thr)
				}
			}
		}
		dec := New(nc, nr)
		r := bitio.NewReader(w.Bytes())
		for thr := 1; thr <= maxv+1; thr++ {
			for y := 0; y < nr; y++ {
				for x := 0; x < nc; x++ {
					got, err := dec.Decode(r, x, y, thr)
					if err != nil || got != (values[y*nc+x] < thr) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// codeGrid sets values on enc, runs the tier-2 query pattern (thresholds
// outer, leaves inner, then EncodeValue for every leaf) and returns the bits;
// dec then replays the same queries and must recover every value.
func codeGrid(t *testing.T, enc, dec *Tree, nc, nr int, values []int) []byte {
	t.Helper()
	maxv := 0
	for y := 0; y < nr; y++ {
		for x := 0; x < nc; x++ {
			enc.SetValue(x, y, values[y*nc+x])
			maxv = max(maxv, values[y*nc+x])
		}
	}
	w := bitio.NewWriter()
	for thr := 1; thr <= maxv/2; thr++ {
		for y := 0; y < nr; y++ {
			for x := 0; x < nc; x++ {
				enc.Encode(w, x, y, thr)
			}
		}
	}
	for y := 0; y < nr; y++ {
		for x := 0; x < nc; x++ {
			enc.EncodeValue(w, x, y)
		}
	}
	bits := w.Bytes()
	r := bitio.NewReader(bits)
	for thr := 1; thr <= maxv/2; thr++ {
		for y := 0; y < nr; y++ {
			for x := 0; x < nc; x++ {
				got, err := dec.Decode(r, x, y, thr)
				if err != nil || got != (values[y*nc+x] < thr) {
					t.Fatalf("%dx%d (%d,%d) thr %d: got %v, %v", nc, nr, x, y, thr, got, err)
				}
			}
		}
	}
	for y := 0; y < nr; y++ {
		for x := 0; x < nc; x++ {
			v, err := dec.DecodeValue(r, x, y)
			if err != nil || v != values[y*nc+x] {
				t.Fatalf("%dx%d (%d,%d): got %d, %v, want %d", nc, nr, x, y, v, err, values[y*nc+x])
			}
		}
	}
	return bits
}

// TestReshapeMatchesNew: one encoder tree and one decoder tree, reshaped
// through a random sequence of grid shapes (growing, shrinking, degenerate
// rows and columns, repeats) after coding at each, emit and decode exactly
// the bits a fresh New tree of each shape does.
func TestReshapeMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	enc, dec := New(1, 1), New(1, 1)
	for trial := 0; trial < 200; trial++ {
		nc, nr := 1+rng.Intn(12), 1+rng.Intn(12)
		if trial%7 == 0 {
			nr = 1
		}
		values := make([]int, nc*nr)
		for i := range values {
			values[i] = rng.Intn(9)
		}
		enc.Reshape(nc, nr)
		dec.Reshape(nc, nr)
		got := codeGrid(t, enc, dec, nc, nr, values)
		want := codeGrid(t, New(nc, nr), New(nc, nr), nc, nr, values)
		if string(got) != string(want) {
			t.Fatalf("trial %d %dx%d: reshaped tree emits %x, New emits %x", trial, nc, nr, got, want)
		}
	}
}

// TestReshapeAllocs: reshaping to a shape no larger than one the tree has
// held allocates nothing.
func TestReshapeAllocs(t *testing.T) {
	tr := New(16, 16)
	shapes := [][2]int{{3, 5}, {16, 16}, {1, 1}, {9, 2}, {16, 15}}
	if n := testing.AllocsPerRun(20, func() {
		for _, s := range shapes {
			tr.Reshape(s[0], s[1])
		}
	}); n != 0 {
		t.Fatalf("Reshape allocates %.0f times per cycle, want 0", n)
	}
}
