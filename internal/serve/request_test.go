package serve

import (
	"net/http"
	"net/textproto"
	"net/url"
	"reflect"
	"strconv"
	"testing"

	"pj2k/internal/jp2k"
	"pj2k/internal/t2"
)

// FuzzRegionQuery: queryGet reads a raw query as url.ParseQuery(q).Get(k)
// does — first value wins, pairs holding ';' or failing to unescape are
// dropped — for every key a region or /stream request reads and for the
// fuzzed key.
func FuzzRegionQuery(f *testing.F) {
	for _, seed := range []struct{ q, key string }{
		{"x0=1&y0=2&x1=30&y1=40&reduce=1&layers=2&format=pgm", "x0"},
		{"x0=1&x0=2", "x0"},
		{"x0=%zz&x0=5", "x0"},
		{"x%30=7&x0=8", "x0"},
		{"format=p%67m&format=raw", "format"},
		{"format=a+b;c&format=ppm", "format"},
		{"a;b=1&reduce=2", "a;b"},
		{"&&reduce=&reduce=3", "reduce"},
		{"layers", "layers"},
		{"=1&%=2&+=3", " "},
		{"k%20y=v+w", "k y"},
	} {
		f.Add(seed.q, seed.key)
	}
	f.Fuzz(func(t *testing.T, q, key string) {
		vals, _ := url.ParseQuery(q)
		for _, k := range []string{"x0", "y0", "x1", "y1", "reduce", "layers", "format", key} {
			if got, want := queryGet(q, k), vals.Get(k); got != want {
				t.Fatalf("queryGet(%q, %q) = %q; url.ParseQuery gives %q", q, k, got, want)
			}
		}
	})
}

// TestResponseHeadersCanonical: region and /stream responses assign their
// header keys in canonical form, so a response canonicalises nothing, and
// every key and value is what Header.Set made of the X-PJ2K-* spellings.
func TestResponseHeadersCanonical(t *testing.T) {
	store := NewStore()
	if _, err := store.Add("gray", encodeTest(t, testImage())); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Add("color", colorTestStream(t)); err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{CacheBytes: 64 << 20})
	defer srv.Close()
	win := jp2k.Rect{X0: 10, Y0: 20, X1: 150, Y1: 130}
	// packetBytes is the X-PJ2K-Packet-Bytes value: the index's packet bytes
	// of every tile the window touches.
	packetBytes := func(id string) string {
		img, _ := store.Get(id)
		colW, rowH := img.Grid(0)
		// The tile cells the window overlaps, found by testing every cell.
		tx0, ty0, tx1, ty1 := len(colW), len(rowH), 0, 0
		for ty := 0; ty+1 < len(rowH); ty++ {
			for tx := 0; tx+1 < len(colW); tx++ {
				if colW[tx] < win.X1 && colW[tx+1] > win.X0 && rowH[ty] < win.Y1 && rowH[ty+1] > win.Y0 {
					tx0, ty0, tx1, ty1 = min(tx0, tx), min(ty0, ty), max(tx1, tx+1), max(ty1, ty+1)
				}
			}
		}
		n, err := img.Index.RegionBytes(tx0, ty0, tx1, ty1, 0, 0, func() *t2.Source { return img.src })
		if err != nil {
			t.Fatal(err)
		}
		return strconv.Itoa(n)
	}
	query := "?x0=10&y0=20&x1=150&y1=130&format="
	for _, c := range []struct {
		id, path string
		ctype    string
		region   bool        // a region response: it carries X-PJ2K-Packet-Bytes
		extra    [][2]string // further headers, in the X-PJ2K-* spelling
	}{
		{"gray", "/img/gray" + query + "pgm", "image/x-portable-graymap", true, nil},
		{"color", "/img/color" + query + "ppm", "image/x-portable-pixmap", true, nil},
		{"color", "/img/color" + query + "raw", "application/octet-stream", true, [][2]string{
			{"X-PJ2K-Width", "140"}, {"X-PJ2K-Height", "110"},
			{"X-PJ2K-Components", "3"}, {"X-PJ2K-Max-Value", "255"},
		}},
		{"gray", "/img/gray/stream?layers=1", "application/octet-stream", false, [][2]string{{"X-PJ2K-Layers", "1"}}},
	} {
		rec := get(t, srv, c.path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.path, rec.Code, rec.Body)
		}
		for k := range rec.Header() {
			if ck := textproto.CanonicalMIMEHeaderKey(k); k != ck {
				t.Errorf("%s: header key %q is not canonical (%q)", c.path, k, ck)
			}
		}
		want := http.Header{}
		want.Set("Content-Type", c.ctype)
		want.Set("Content-Length", strconv.Itoa(rec.Body.Len()))
		if c.region {
			want.Set("X-PJ2K-Packet-Bytes", packetBytes(c.id))
		}
		for _, kv := range c.extra {
			want.Set(kv[0], kv[1])
		}
		if got := rec.Header(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: headers %v, want %v", c.path, got, want)
		}
	}
}
