package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/jp2k"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

func colorTestStream(t testing.TB) []byte {
	t.Helper()
	pl := raster.RGB(
		raster.Synthetic(230, 190, 201),
		raster.Synthetic(230, 190, 202),
		raster.Synthetic(230, 190, 203),
	)
	cs, _, err := jp2k.EncodePlanar(pl, jp2k.Options{
		Kernel: dwt.Irr97, MCT: true, LayerBPP: []float64{0.75, 3.0},
		TileW: 96, TileH: 80, Levels: 3, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func fetchPPM(t *testing.T, ts *httptest.Server, path string) *raster.Planar {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s: %d: %s", path, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/x-portable-pixmap" {
		t.Fatalf("%s: content type %q", path, ct)
	}
	pl, _, err := raster.ReadPNM(resp.Body)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if pl.NComp() != 3 {
		t.Fatalf("%s: %d-component PNM, want PPM", path, pl.NComp())
	}
	return pl
}

// TestServerColorRegionMatchesDecode is the color-serving acceptance check:
// windows of a Csiz=3 stream, served as PPM through the tile cache, must
// equal cropping a straight DecodePlanar at every reduce level.
func TestServerColorRegionMatchesDecode(t *testing.T) {
	cs := colorTestStream(t)
	store := NewStore()
	if _, err := store.Add("color", cs); err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{CacheBytes: 1 << 20})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, reduce := range []int{0, 1, 2} {
		full, err := jp2k.DecodePlanarSource(t2.BytesSource(cs), jp2k.DecodeOptions{DiscardLevels: reduce})
		if err != nil {
			t.Fatal(err)
		}
		full.ClampTo8()
		w, h := full.Width(), full.Height()
		windows := []jp2k.Rect{
			{X0: 0, Y0: 0, X1: w, Y1: h},
			{X0: w / 4, Y0: h / 4, X1: 3 * w / 4, Y1: 3 * h / 4},
			{X0: w - 1, Y0: 0, X1: w, Y1: 1},
		}
		for _, win := range windows {
			path := fmt.Sprintf("/img/color?x0=%d&y0=%d&x1=%d&y1=%d&reduce=%d",
				win.X0, win.Y0, win.X1, win.Y1, reduce)
			got := fetchPPM(t, ts, path)
			if got.Width() != win.Dx() || got.Height() != win.Dy() {
				t.Fatalf("%s: got %dx%d", path, got.Width(), got.Height())
			}
			for ci := 0; ci < 3; ci++ {
				for y := 0; y < got.Height(); y++ {
					for x := 0; x < got.Width(); x++ {
						if got.Comps[ci].At(x, y) != full.Comps[ci].At(win.X0+x, win.Y0+y) {
							t.Fatalf("%s: comp %d pixel (%d,%d) = %d, want %d", path, ci, x, y,
								got.Comps[ci].At(x, y), full.Comps[ci].At(win.X0+x, win.Y0+y))
						}
					}
				}
			}
		}
	}
	// Repeats hit the cache instead of re-decoding.
	before := srv.TileDecodes()
	fetchPPM(t, ts, "/img/color?x0=10&y0=10&x1=100&y1=90")
	after := srv.TileDecodes()
	fetchPPM(t, ts, "/img/color?x0=10&y0=10&x1=100&y1=90")
	if srv.TileDecodes() != after {
		t.Fatal("repeated color window re-decoded tiles")
	}
	_ = before
}

// TestServerColorFormatsAndInfo: format negotiation and the component-aware
// info payload for color streams.
func TestServerColorFormatsAndInfo(t *testing.T) {
	cs := colorTestStream(t)
	store := NewStore()
	if _, err := store.Add("color", cs); err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{CacheBytes: 1 << 20})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// PGM explicitly requested on a color image is a client error.
	resp, err := ts.Client().Get(ts.URL + "/img/color?format=pgm&x1=20&y1=20")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=pgm on color: status %d, want 400", resp.StatusCode)
	}

	// raw is planar with a component-count header; this 8-bit stream
	// (X-PJ2K-Max-Value 255) packs one byte per sample.
	resp, err = ts.Client().Get(ts.URL + "/img/color?format=raw&x1=20&y1=10")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("format=raw: status %d", resp.StatusCode)
	}
	if c := resp.Header.Get("X-PJ2K-Components"); c != "3" {
		t.Fatalf("X-PJ2K-Components = %q, want 3", c)
	}
	if mv := resp.Header.Get("X-PJ2K-Max-Value"); mv != "255" {
		t.Fatalf("X-PJ2K-Max-Value = %q, want 255", mv)
	}
	if len(raw) != 20*10*3 {
		t.Fatalf("raw payload %d bytes, want %d (1 byte/sample at maxval 255)", len(raw), 20*10*3)
	}

	// info reports the component count and MCT flag.
	resp, err = ts.Client().Get(ts.URL + "/img/color/info")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, frag := range []string{`"components": 3`, `"mct": true`} {
		if !bytes.Contains(body, []byte(frag)) {
			t.Errorf("info response missing %s: %s", frag, body)
		}
	}
}
