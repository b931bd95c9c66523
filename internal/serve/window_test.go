package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"pj2k/internal/dwt"
	"pj2k/internal/faultinject"
	"pj2k/internal/jp2k"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// deepTestStream is a tiled 12-bit grayscale stream: the 8-bit synthetic ramp
// spread over 12 bits, so responses carry two bytes per sample.
func deepTestStream(t testing.TB) []byte {
	t.Helper()
	deep := raster.Synthetic(230, 190, 7)
	for i, v := range deep.Pix {
		deep.Pix[i] = v << 4
	}
	cs, _, err := jp2k.Encode(deep, jp2k.Options{
		Kernel: dwt.Irr97, LayerBPP: []float64{2.0}, BitDepth: 12,
		TileW: 96, TileH: 80, Levels: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// deepColorTestStream is a tiled 12-bit three-component stream with the MCT:
// colour responses that carry two bytes per sample.
func deepColorTestStream(t testing.TB) []byte {
	t.Helper()
	pl := raster.NewPlanar(230, 190, 3)
	for ci, c := range pl.Comps {
		for i, v := range raster.Synthetic(230, 190, uint64(301+ci)).Pix {
			c.Pix[i] = v << 4
		}
	}
	cs, _, err := jp2k.EncodePlanar(pl, jp2k.Options{
		Kernel: dwt.Irr97, MCT: true, LayerBPP: []float64{3.0}, BitDepth: 12,
		TileW: 96, TileH: 80, Levels: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// wantBody is the independent reference for a region response: the window
// cropped out of a straight full decode, clamped the way the CLI decoder
// clamps (ClampTo8 for 8-bit streams), and serialised by the PNM writers —
// or, for raw, laid out as documented: planar, big-endian pairs above 255.
func wantBody(t *testing.T, ref *raster.Planar, win jp2k.Rect, format string, maxval int) []byte {
	t.Helper()
	crop := raster.NewPlanar(win.Dx(), win.Dy(), ref.NComp())
	for c, im := range ref.Comps {
		for y := 0; y < win.Dy(); y++ {
			copy(crop.Comps[c].Row(y), im.Row(win.Y0 + y)[win.X0:win.X1])
		}
	}
	if maxval == 255 {
		crop.ClampTo8()
	}
	var out bytes.Buffer
	var err error
	switch format {
	case "pgm":
		err = raster.WritePGM(&out, crop.Comps[0], maxval)
	case "ppm":
		err = raster.WritePPM(&out, crop, maxval)
	default:
		for _, im := range crop.Comps {
			for _, v := range im.Pix {
				v = min(max(v, 0), int32(maxval))
				if maxval > 255 {
					out.WriteByte(byte(v >> 8))
				}
				out.WriteByte(byte(v))
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestRegionResponseByteIdentity is the response-format gate inside Tier-1:
// for gray and colour streams at 8 and 12 bits, every format, and
// tile-aligned, unaligned, single-pixel and edge-clipped windows at reduce
// 0..2, the body assembled straight from the cached tiles equals the
// reference byte for byte and arrives with its Content-Length. Every request
// runs twice, so both the decode and the all-hits path are compared.
func TestRegionResponseByteIdentity(t *testing.T) {
	streams := []struct {
		id     string
		cs     []byte
		maxval int
	}{
		{"gray8", encodeTest(t, testImage()), 255},
		{"color8", colorTestStream(t), 255},
		{"gray12", deepTestStream(t), 4095},
		{"color12", deepColorTestStream(t), 4095},
	}
	store := NewStore()
	for _, st := range streams {
		if _, err := store.Add(st.id, st.cs); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(store, Options{CacheBytes: 64 << 20})
	defer srv.Close()
	for _, st := range streams {
		img, _ := store.Get(st.id)
		ncomp := img.Params().Components()
		for reduce := 0; reduce <= 2; reduce++ {
			ref, err := jp2k.DecodePlanarSource(t2.BytesSource(st.cs), jp2k.DecodeOptions{DiscardLevels: reduce})
			if err != nil {
				t.Fatal(err)
			}
			colW, rowH := img.Grid(reduce)
			W, H := ref.Width(), ref.Height()
			windows := map[string]jp2k.Rect{
				"full":      {X1: W, Y1: H},
				"aligned":   {X0: colW[1], Y0: rowH[1], X1: colW[2], Y1: rowH[2]},
				"unaligned": {X0: 3, Y0: 5, X1: W - 7, Y1: H - 4},
				"pixel":     {X0: W / 2, Y0: H / 2, X1: W/2 + 1, Y1: H/2 + 1},
				"clipped":   {X0: W - 10, Y0: H - 9, X1: W + 50, Y1: H + 50},
			}
			for wname, win := range windows {
				for _, format := range []string{"", "pgm", "ppm", "raw"} {
					path := fmt.Sprintf("/img/%s?reduce=%d&x0=%d&y0=%d&x1=%d&y1=%d", st.id, reduce, win.X0, win.Y0, win.X1, win.Y1)
					if format != "" {
						path += "&format=" + format
					}
					if (format == "pgm" && ncomp != 1) || (format == "ppm" && ncomp != 3) {
						if rec := get(t, srv, path); rec.Code != http.StatusBadRequest {
							t.Errorf("%s: status %d, want 400", path, rec.Code)
						}
						continue
					}
					effective := format
					if format == "" {
						effective = map[int]string{1: "pgm", 3: "ppm"}[ncomp]
					}
					want := wantBody(t, ref, win.Intersect(jp2k.Rect{X1: W, Y1: H}), effective, st.maxval)
					for pass := 0; pass < 2; pass++ {
						rec := get(t, srv, path)
						if rec.Code != http.StatusOK {
							t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
						}
						if !bytes.Equal(rec.Body.Bytes(), want) {
							t.Errorf("%s (%s window, pass %d): body differs from the reference", path, wname, pass)
						}
						if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
							t.Errorf("%s: Content-Length %q, body is %d bytes", path, cl, len(want))
						}
					}
				}
			}
		}
	}
}

// FuzzRegionBody: for a fuzzer-chosen window (clipped and one-pixel windows
// included), reduce level 0..2, format ("" for the default, pgm, ppm, raw)
// and cache on or off, over small gray and colour streams at 8 and 12 bits
// whose 13x11 tiles leave ragged edge tiles, every region body equals the
// window cropped out of a direct decode and written in the requested format,
// on the request that decodes its tiles and on the one that finds them
// cached. A format the image cannot take is a 400.
func FuzzRegionBody(f *testing.F) {
	const w, h = 61, 47
	gray, rgb := raster.Synthetic(w, h, 41), raster.NewPlanar(w, h, 3)
	for ci, c := range rgb.Comps {
		copy(c.Pix, raster.Synthetic(w, h, uint64(42+ci)).Pix)
	}
	deep := func(pl *raster.Planar) *raster.Planar {
		pl = pl.Clone()
		for _, c := range pl.Comps {
			for i, v := range c.Pix {
				c.Pix[i] = v << 4
			}
		}
		return pl
	}
	tiled := jp2k.Options{TileW: 13, TileH: 11, Levels: 2}
	lossy, lossless, deepLossy := tiled, tiled, tiled
	lossy.Kernel, lossy.LayerBPP = dwt.Irr97, []float64{2.0}
	lossless.Kernel = dwt.Rev53
	deepLossy.Kernel, deepLossy.LayerBPP, deepLossy.BitDepth = dwt.Irr97, []float64{3.0}, 12
	deepLossless := lossless
	deepLossless.BitDepth = 12
	streams := []struct {
		id     string
		pl     *raster.Planar
		opts   jp2k.Options
		mct    bool
		maxval int
	}{
		{"gray8", raster.Gray(gray), lossy, false, 255},
		{"color8", rgb, lossless, true, 255},
		{"gray12", deep(raster.Gray(gray)), deepLossless, false, 4095},
		{"color12", deep(rgb), deepLossy, true, 4095},
	}
	store := NewStore()
	refs := make([][3]*raster.Planar, len(streams)) // a direct decode per stream and reduce
	for i, st := range streams {
		st.opts.MCT = st.mct
		cs, _, err := jp2k.EncodePlanar(st.pl, st.opts)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := store.Add(st.id, cs); err != nil {
			f.Fatal(err)
		}
		for reduce := range refs[i] {
			if refs[i][reduce], err = jp2k.DecodePlanarSource(t2.BytesSource(cs), jp2k.DecodeOptions{DiscardLevels: reduce}); err != nil {
				f.Fatal(err)
			}
		}
	}
	cached, uncached := New(store, Options{CacheBytes: 8 << 20}), New(store, Options{CacheBytes: -1})
	f.Cleanup(cached.Close)
	f.Cleanup(uncached.Close)
	formats := []string{"", "pgm", "ppm", "raw"}

	// Seeds: TestRegionResponseByteIdentity's five windows on every stream at
	// every reduce level, formats and cache settings taken in turn. A window
	// is (x0 mod W, y0 mod H) plus a size of one more than (dx, dy).
	seed := 0
	for i, st := range streams {
		img, _ := store.Get(st.id)
		for reduce, ref := range refs[i] {
			colW, rowH := img.Grid(reduce)
			W, H := ref.Width(), ref.Height()
			for _, win := range []jp2k.Rect{
				{X1: W, Y1: H},
				{X0: colW[1], Y0: rowH[1], X1: colW[2], Y1: rowH[2]},
				{X0: 3, Y0: 5, X1: W - 7, Y1: H - 4},
				{X0: W / 2, Y0: H / 2, X1: W/2 + 1, Y1: H/2 + 1},
				{X0: W - 10, Y0: H - 9, X1: W + 50, Y1: H + 50},
			} {
				f.Add(uint8(i), uint8(reduce), uint8(seed%len(formats)), seed%2 == 0,
					uint16(win.X0), uint16(win.Y0), uint16(win.Dx()-1), uint16(win.Dy()-1))
				seed++
			}
		}
	}
	f.Fuzz(func(t *testing.T, stream, reduce, format uint8, cache bool, x0, y0, dx, dy uint16) {
		i := int(stream) % len(streams)
		st, ref := streams[i], refs[i][int(reduce)%3]
		W, H := ref.Width(), ref.Height()
		win := jp2k.Rect{X0: int(x0) % W, Y0: int(y0) % H}
		win.X1, win.Y1 = win.X0+1+int(dx), win.Y0+1+int(dy)
		fm := formats[int(format)%len(formats)]
		path := fmt.Sprintf("/img/%s?reduce=%d&x0=%d&y0=%d&x1=%d&y1=%d", st.id, int(reduce)%3, win.X0, win.Y0, win.X1, win.Y1)
		if fm != "" {
			path += "&format=" + fm
		}
		srv := uncached
		if cache {
			srv = cached
		}
		ncomp := ref.NComp()
		if (fm == "pgm" && ncomp != 1) || (fm == "ppm" && ncomp != 3) {
			if rec := get(t, srv, path); rec.Code != http.StatusBadRequest {
				t.Fatalf("%s: status %d, want 400", path, rec.Code)
			}
			return
		}
		if fm == "" {
			fm = map[int]string{1: "pgm", 3: "ppm"}[ncomp]
		}
		want := wantBody(t, ref, win.Intersect(jp2k.Rect{X1: W, Y1: H}), fm, st.maxval)
		for pass := range 2 {
			rec := get(t, srv, path)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s (cache %v, pass %d): body differs from the reference", path, cache, pass)
			}
		}
	})
}

// TestConcurrentColdRequestsMatchDecode: with the cache off every tile is a
// miss packed from a pooled Decoder's own output image, and every miss no
// waiter joined is packed into a recycled buffer. Concurrent requests for
// overlapping windows of a gray and a colour image (so some misses are
// joined) at TileWorkers 1 and 3 must each get a body byte-equal to the
// reference. Under -race this is the gate for packing before the Decoder goes
// back to its pool and for recycling only the tiles nobody else holds.
func TestConcurrentColdRequestsMatchDecode(t *testing.T) {
	streams := []struct {
		id      string
		cs      []byte
		formats []string
	}{
		{"gray", encodeTest(t, testImage()), []string{"pgm", "raw"}},
		{"color", colorTestStream(t), []string{"ppm", "raw"}},
	}
	type request struct {
		path string
		want []byte
	}
	var reqs []request
	store := NewStore()
	for _, st := range streams {
		if _, err := store.Add(st.id, st.cs); err != nil {
			t.Fatal(err)
		}
		for reduce := range 2 {
			ref, err := jp2k.DecodePlanarSource(t2.BytesSource(st.cs), jp2k.DecodeOptions{DiscardLevels: reduce})
			if err != nil {
				t.Fatal(err)
			}
			W, H := ref.Width(), ref.Height()
			for i, format := range st.formats {
				for k := range 3 {
					win := jp2k.Rect{X0: (17 + 31*k + 7*i) % (W / 2), Y0: (11 + 23*k) % (H / 2)}
					win.X1, win.Y1 = min(win.X0+W/2, W), min(win.Y0+H/2, H)
					reqs = append(reqs, request{
						path: fmt.Sprintf("/img/%s?reduce=%d&x0=%d&y0=%d&x1=%d&y1=%d&format=%s",
							st.id, reduce, win.X0, win.Y0, win.X1, win.Y1, format),
						want: wantBody(t, ref, win, format, 255),
					})
				}
			}
		}
	}
	for _, workers := range []int{1, 3} {
		srv := New(store, Options{CacheBytes: -1, TileWorkers: workers})
		const goroutines, rounds = 6, 2
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range rounds * len(reqs) {
					r := reqs[(g+i)%len(reqs)]
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, httptest.NewRequest("GET", r.path, nil))
					if rec.Code != http.StatusOK {
						t.Errorf("TileWorkers %d %s: status %d: %s", workers, r.path, rec.Code, rec.Body)
						return
					}
					if !bytes.Equal(rec.Body.Bytes(), r.want) {
						t.Errorf("TileWorkers %d %s: body differs from the reference", workers, r.path)
						return
					}
				}
			}()
		}
		wg.Wait()
		st := srv.cache.Stats()
		t.Logf("TileWorkers %d: %d misses, %d joined", workers, st.Misses, st.Coalesced)
		srv.Close()
	}
}

// TestCacheChargesWireBytes: the server caches tiles in wire form, in the
// sample order of the image's default format (interleaved for colour, planar
// otherwise), so whatever the order, after warming raw windows on gray 8-bit,
// colour 8-bit and gray 12-bit images (at two reduce levels), /stats
// cache.bytes is the sum over the resident tiles of tw*th*ncomp*SampleBytes
// plus the per-entry overhead, with tw x th each tile's grid cell. The budget
// is large enough that nothing is evicted, so the resident tiles are every
// tile a window touched.
func TestCacheChargesWireBytes(t *testing.T) {
	store := NewStore()
	for id, cs := range map[string][]byte{"gray8": encodeTest(t, testImage()), "color8": colorTestStream(t), "gray12": deepTestStream(t)} {
		if _, err := store.Add(id, cs); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(store, Options{CacheBytes: 64 << 20})
	defer srv.Close()
	resident := map[TileKey]int64{}
	for _, id := range []string{"gray8", "color8", "gray12"} {
		img, _ := store.Get(id)
		p := img.Params()
		bps := 1
		if p.BitDepth > 8 {
			bps = 2
		}
		for reduce, win := range []jp2k.Rect{{X0: 10, Y0: 20, X1: 150, Y1: 100}, {X0: 0, Y0: 0, X1: 40, Y1: 30}} {
			path := fmt.Sprintf("/img/%s?reduce=%d&x0=%d&y0=%d&x1=%d&y1=%d&format=raw", id, reduce, win.X0, win.Y0, win.X1, win.Y1)
			if rec := get(t, srv, path); rec.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
			}
			colW, rowH := img.Grid(reduce)
			for ty := 0; ty+1 < len(rowH); ty++ {
				for tx := 0; tx+1 < len(colW); tx++ {
					if colW[tx] < win.X1 && colW[tx+1] > win.X0 && rowH[ty] < win.Y1 && rowH[ty+1] > win.Y0 {
						key := TileKey{Image: id, TX: tx, TY: ty, Discard: reduce, Layers: img.Params().Layers}
						resident[key] = int64((colW[tx+1]-colW[tx])*(rowH[ty+1]-rowH[ty])*p.Components()*bps) + 160
					}
				}
			}
		}
	}
	var want int64
	for _, b := range resident {
		want += b
	}
	var stats struct {
		Cache CacheStats `json:"cache"`
	}
	if err := json.Unmarshal(get(t, srv, "/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats.Cache; got.Bytes != want || got.Entries != len(resident) || got.Evictions != 0 {
		t.Fatalf("/stats cache: %d bytes in %d entries (%d evictions), want %d bytes in %d entries",
			got.Bytes, got.Entries, got.Evictions, want, len(resident))
	}
}

// TestRegionFailureSendsNoImageBytes: a strict-mode window whose first tile
// is cached and whose second tile cannot be read is a 5xx carrying only the
// error text — the body is assembled before the status line, so a failure
// mid-window never leaks a partial image under a 200.
func TestRegionFailureSendsNoImageBytes(t *testing.T) {
	srv, fl := flakyImageServer(t, Options{CacheBytes: 1 << 20, IORetries: -1, QuarantineAfter: -1},
		faultinject.FlakyConfig{FailNth: 1})
	if rec := get(t, srv, "/img/q?x0=0&y0=0&x1=96&y1=80"); rec.Code != http.StatusOK {
		t.Fatalf("warming tile (0,0): %d", rec.Code)
	}
	fl.Break()
	rec := get(t, srv, "/img/q?x0=0&y0=0&x1=192&y1=80")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("window over an unreadable tile: status %d, want 500", rec.Code)
	}
	if body := rec.Body.Bytes(); bytes.HasPrefix(body, []byte("P5")) || len(body) > 512 {
		t.Fatalf("error response carries %d bytes starting %q", len(body), body[:min(len(body), 16)])
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("error response Content-Type %q", ct)
	}
}

// TestBadFormatCostsNoDecode: a request that will be refused for its format
// is refused before the first tile is fetched, on a cold cache.
func TestBadFormatCostsNoDecode(t *testing.T) {
	store := NewStore()
	if _, err := store.Add("gray", encodeTest(t, testImage())); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Add("color", colorTestStream(t)); err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{CacheBytes: 1 << 20})
	defer srv.Close()
	for _, path := range []string{"/img/gray?format=tiff", "/img/gray?format=ppm", "/img/color?format=pgm"} {
		if rec := get(t, srv, path); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, rec.Code)
		}
	}
	if n := srv.TileDecodes(); n != 0 {
		t.Fatalf("refused requests cost %d tile decodes", n)
	}
}

// TestClientErrorOutcome: 400, 404 and 413 land in the client_error latency
// class, not beside real failures in error.
func TestClientErrorOutcome(t *testing.T) {
	store := NewStore()
	if _, err := store.Add("test", encodeTest(t, testImage())); err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{CacheBytes: 1 << 20, MaxPixels: 1000})
	defer srv.Close()
	for i, c := range []struct {
		path string
		code int
	}{
		{"/img/test?x0=bogus", http.StatusBadRequest},
		{"/img/nosuch", http.StatusNotFound},
		{"/img/test", http.StatusRequestEntityTooLarge},
	} {
		if rec := get(t, srv, c.path); rec.Code != c.code {
			t.Fatalf("%s: status %d, want %d", c.path, rec.Code, c.code)
		}
		lat := serverStats(t, srv).RequestLatency
		if got := lat["client_error"].Count; got != uint64(i+1) {
			t.Errorf("after %s: client_error count %d, want %d", c.path, got, i+1)
		}
		if got := lat["error"].Count; got != 0 {
			t.Errorf("after %s: error count %d, want 0", c.path, got)
		}
	}
}

// TestWarmRequestAllocs caps the allocations of an all-hits region request
// through ServeHTTP and shows they do not grow with the window: the tile loop
// allocates nothing per tile and the body comes from the pool. Measured 14
// per request at both sizes (the recorder, the mux's path match, the request
// context and the header values included; the query is read in place and the
// header keys are assigned canonical, where a parsed url.Values and
// canonicalised X-PJ2K-* keys made it 21; the tile grid is the image's,
// computed at registration); the cap leaves room for net/http drift, not for
// a per-tile or per-row cost.
func TestWarmRequestAllocs(t *testing.T) {
	srv, _ := newTestServer(t, 64<<20)
	defer srv.Close()
	measure := func(path string, failWrites bool) float64 {
		req := httptest.NewRequest("GET", path, nil)
		run := func() {
			rec := httptest.NewRecorder()
			rec.Body = nil // count the server's allocations, not the recorder's copy
			var w http.ResponseWriter = rec
			if failWrites {
				w = brokenPipe{rec}
			}
			srv.ServeHTTP(w, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d", path, rec.Code)
			}
		}
		run() // decode the tiles and size the pooled body
		return testing.AllocsPerRun(50, run)
	}
	const oneTile, nineTiles = "/img/test?x0=0&y0=0&x1=96&y1=80", "/img/test?x0=0&y0=0&x1=230&y1=190"
	one, nine := measure(oneTile, false), measure(nineTiles, false)
	t.Logf("allocs per warm request: 1 tile %.0f, 9 tiles %.0f", one, nine)
	if nine > 17 {
		t.Errorf("warm 9-tile request allocates %.0f times, cap 17", nine)
	}
	if nine > one+1 { // the touched-tile index list may change size class
		t.Errorf("allocations grow with the window: %.0f for 1 tile, %.0f for 9", one, nine)
	}
	// A failed write still hands the body back: the next request finds it in
	// the pool instead of allocating a new one.
	errsBefore := srv.errors.Value()
	if broken := measure(nineTiles, true); broken > nine+1 {
		t.Errorf("requests whose write fails allocate %.0f times, %.0f when it succeeds", broken, nine)
	}
	if srv.errors.Value() == errsBefore {
		t.Error("failed response writes were not counted")
	}
}

// TestColdRequestAllocs caps what a tile miss allocates when the server's
// shared decoder pool alternates between shapes: with the cache disabled,
// requests alternate between a gray tiled 9/7 image and a 3-component 5/3
// image, as unaligned T x T windows (four tiles each) plus reduce=2 windows
// on the gray image. Every tile decode reshapes the pooled codec state the
// other image left behind. The allocations per request, divided by the tile
// misses it caused, must stay within the cap: a share of the request's own
// overhead (TestWarmRequestAllocs counts 14 per request) and nothing per
// miss — the decoded tile is the pooled Decoder's own output image, its wire
// form is packed into a recycled buffer, and the singleflight record of an
// unjoined miss is recycled. Measured 3.8 per miss; 4.2 when the first miss
// of a request built its retry budget and its resilient source in three
// allocations instead of one; 11.1 when every miss
// allocated a fresh four-block image and a fresh wire tile and every request
// a url.Values map and canonicalised header keys; 11.4 with a new record per
// miss, no packing at the miss and an fmt-built PNM header. Before pooled
// state reshaped in place, a miss after a shape change rebuilt the tier-2
// state, grids and DWT level closures; before the container scan was
// pooled, the Planar took one header and one sample block per component and
// every miss made a wake channel, a miss cost 14.2.
func TestColdRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled decoders at random; the cap counts the production allocator")
	}
	const side, tileSide = 256, 64
	gray, _, err := jp2k.Encode(raster.Synthetic(side, side, 5), jp2k.Options{
		Kernel: dwt.Irr97, LayerBPP: []float64{0.5, 1.0}, TileW: tileSide, TileH: tileSide,
	})
	if err != nil {
		t.Fatal(err)
	}
	rgb := raster.NewPlanar(side/2, side/2, 3)
	for ci, c := range rgb.Comps {
		copy(c.Pix, raster.Synthetic(side/2, side/2, uint64(6+ci)).Pix)
	}
	col, _, err := jp2k.EncodePlanar(rgb, jp2k.Options{
		Kernel: dwt.Rev53, MCT: true, TileW: tileSide / 2, TileH: tileSide / 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	for id, cs := range map[string][]byte{"gray": gray, "col": col} {
		if _, err := store.Add(id, cs); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(store, Options{CacheBytes: -1})
	defer srv.Close()
	var paths []string
	for i := 0; i < 4; i++ {
		x, y := 17+29*i, 11+23*i // unaligned: each window straddles four tiles
		paths = append(paths,
			fmt.Sprintf("/img/gray?x0=%d&y0=%d&x1=%d&y1=%d", x, y, x+tileSide, y+tileSide),
			fmt.Sprintf("/img/col?x0=%d&y0=%d&x1=%d&y1=%d", x/2, y/2, x/2+tileSide/2, y/2+tileSide/2),
			fmt.Sprintf("/img/gray?x0=%d&y0=%d&x1=%d&y1=%d&reduce=2", x/4, y/4, x/4+tileSide/4, y/4+tileSide/4))
	}
	reqs := make([]*http.Request, len(paths))
	for i, p := range paths {
		reqs[i] = httptest.NewRequest("GET", p, nil)
	}
	cycle := func() {
		for i, req := range reqs {
			rec := httptest.NewRecorder()
			rec.Body = nil // count the server's allocations, not the recorder's copy
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d", paths[i], rec.Code)
			}
		}
	}
	cycle() // size the pooled decoder state and response bodies
	before := srv.tileDecodes.Value()
	const runs = 10
	perCycle := testing.AllocsPerRun(runs, cycle)
	misses := float64(srv.tileDecodes.Value()-before) / (runs + 1) // AllocsPerRun adds a warm-up run
	perMiss := perCycle / misses
	t.Logf("%.0f allocations per cycle of %d requests, %.0f tile misses: %.1f per miss", perCycle, len(reqs), misses, perMiss)
	if perMiss > coldMissCap {
		t.Errorf("%.1f allocations per tile miss, cap %d", perMiss, coldMissCap)
	}
}

// coldMissCap bounds allocations per tile miss in TestColdRequestAllocs:
// measured 3.8, with room for net/http drift in the shared request overhead.
const coldMissCap = 5

// BenchmarkWarmRegion is the warm path in process: ServeHTTP of windows
// panning over an image whose tiles are all cached, one sub-benchmark per hit
// shape. gray/pgm serves 1024x768 PGM windows of a 2048x2048 9/7 image of 256
// 128x128 tiles; colour/ppm and colour/raw serve 512x384 windows of a
// 1024x1024 5/3 + MCT image of 64 128x128 tiles as PPM (the order the tiles
// are cached in) and as raw (split into planes at copy time). Each set of
// wire tiles (4 MiB gray, 3 MiB colour) is larger than L2, so this gauges the
// row copies out of cached tiles, not the codec.
func BenchmarkWarmRegion(b *testing.B) {
	gray := func(b *testing.B) *Server {
		cs, _, err := jp2k.Encode(raster.Synthetic(2048, 2048, 11), jp2k.Options{
			Kernel: dwt.Irr97, LayerBPP: []float64{1.0}, TileW: 128, TileH: 128, Levels: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		srv := warmServer(b, cs)
		b.Cleanup(srv.Close)
		return srv
	}
	var colour *Server // shared by the two colour formats, encoded once
	colourServer := func(b *testing.B) *Server {
		if colour != nil {
			return colour
		}
		const side = 1024
		pl := raster.NewPlanar(side, side, 3)
		for ci, c := range pl.Comps {
			copy(c.Pix, raster.Synthetic(side, side, uint64(12+ci)).Pix)
		}
		cs, _, err := jp2k.EncodePlanar(pl, jp2k.Options{
			Kernel: dwt.Rev53, MCT: true, TileW: 128, TileH: 128, Levels: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		colour = warmServer(b, cs)
		return colour
	}
	b.Cleanup(func() {
		if colour != nil {
			colour.Close()
		}
	})
	for _, c := range []struct {
		name, format string
		server       func(*testing.B) *Server
		side, vw, vh int
	}{
		{"gray/pgm", "pgm", gray, 2048, 1024, 768},
		{"colour/ppm", "ppm", colourServer, 1024, 512, 384},
		{"colour/raw", "raw", colourServer, 1024, 512, 384},
	} {
		b.Run(c.name, func(b *testing.B) {
			srv := c.server(b)
			var reqs []*http.Request
			for k := range 16 { // tile-unaligned origins spread over the image
				x0, y0 := k*337%(c.side-c.vw), k*211%(c.side-c.vh)
				reqs = append(reqs, httptest.NewRequest("GET", fmt.Sprintf("/img/big?x0=%d&y0=%d&x1=%d&y1=%d&format=%s",
					x0, y0, x0+c.vw, y0+c.vh, c.format), nil))
			}
			decodes := srv.TileDecodes()
			b.SetBytes(int64(c.vw * c.vh))
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				serveOK(b, srv, reqs[i%len(reqs)])
				i++
			}
			if n := srv.TileDecodes(); n != decodes {
				b.Fatalf("%d tile decodes while serving warm windows", n-decodes)
			}
		})
	}
}

// warmServer serves cs as "big" with every tile decoded and cached.
func warmServer(b *testing.B, cs []byte) *Server {
	store := NewStore()
	if _, err := store.Add("big", cs); err != nil {
		b.Fatal(err)
	}
	srv := New(store, Options{CacheBytes: 64 << 20})
	serveOK(b, srv, httptest.NewRequest("GET", "/img/big", nil))
	return srv
}

// serveOK serves req, discarding the body: the benchmarks count the server's
// work, not the recorder's copy.
func serveOK(b *testing.B, srv *Server, req *http.Request) {
	rec := httptest.NewRecorder()
	rec.Body = nil
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: %d", req.URL, rec.Code)
	}
}

// brokenPipe is a ResponseWriter whose client has gone away.
type brokenPipe struct{ http.ResponseWriter }

func (brokenPipe) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }
