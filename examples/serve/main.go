// Serving example: the full progressive image-serving pipeline in one
// process. Encodes a tiled grayscale image and a tiled color (Csiz=3) image,
// registers both with the serve subsystem, starts an HTTP server, and then
// plays the requests a zoomable viewer would issue — a thumbnail, a viewport
// at full resolution, the same viewport again (cache hit), a color viewport
// served as PPM, a raw window whose sample width the client negotiates from
// the X-PJ2K-Max-Value header, and a layer-truncated codestream for a client
// that decodes locally — printing what each request cost the server.
//
// Run with: go run ./examples/serve
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"pj2k/internal/dwt"
	"pj2k/internal/jp2k"
	"pj2k/internal/raster"
	"pj2k/internal/serve"
)

func main() {
	// A 1024x1024 image in 256x256 tiles: 16 tiles, 3 quality layers. One
	// codestream will serve every request below.
	im := raster.Synthetic(1024, 1024, 4711)
	cs, stats, err := jp2k.Encode(im, jp2k.Options{
		Kernel:   dwt.Irr97,
		LayerBPP: []float64{0.125, 0.5, 1.0},
		TileW:    256, TileH: 256,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoded %dx%d: %d bytes (%.3f bpp), %d code-blocks\n",
		im.Width, im.Height, stats.Bytes, stats.BPP, stats.CodeBlocks)

	// A color companion: three correlated planes as one standard Csiz=3
	// codestream (MCT on), tiled the same way. The serve layer treats it
	// exactly like the grayscale stream — windows just come back as PPM.
	g := raster.Synthetic(1024, 1024, 4712)
	r, b := g.Clone(), g.Clone()
	for i := range g.Pix {
		r.Pix[i] = min(255, g.Pix[i]+int32(i%31))
		b.Pix[i] = max(0, g.Pix[i]-int32(i%23))
	}
	colorCS, colorStats, err := jp2k.EncodePlanar(raster.RGB(r, g, b), jp2k.Options{
		Kernel:   dwt.Irr97,
		MCT:      true,
		LayerBPP: []float64{0.25, 1.0},
		TileW:    256, TileH: 256,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoded color %dx%dx3: %d bytes (%.3f bpp)\n",
		g.Width, g.Height, colorStats.Bytes, colorStats.BPP)

	store := serve.NewStore()
	if _, err := store.Add("demo", cs); err != nil {
		log.Fatal(err)
	}
	if _, err := store.Add("demo-color", colorCS); err != nil {
		log.Fatal(err)
	}
	srv := serve.New(store, serve.Options{CacheBytes: 64 << 20})
	defer srv.Close() // joins the server's resident decode workers
	ts := httptest.NewServer(srv)
	defer ts.Close()
	fmt.Printf("serving at %s\n\n", ts.URL)

	get := func(path string) (body []byte, elapsed time.Duration, hdr http.Header) {
		t0 := time.Now()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		body, err = io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			log.Fatalf("GET %s: %d %v: %s", path, resp.StatusCode, err, body)
		}
		return body, time.Since(t0), resp.Header
	}

	// 1. Geometry first: a viewer asks what scales exist.
	body, el, _ := get("/img/demo/info")
	var info struct {
		Reductions []struct{ Reduce, Width, Height int } `json:"reductions"`
	}
	json.Unmarshal(body, &info)
	fmt.Printf("info (%v):\n", el.Round(time.Microsecond))
	for _, r := range info.Reductions {
		fmt.Printf("  reduce=%d -> %dx%d\n", r.Reduce, r.Width, r.Height)
	}

	// 2. Thumbnail: the whole image at 1/16 scale decodes just the low
	// resolutions of every tile.
	body, el, hdr := get("/img/demo?reduce=4")
	fmt.Printf("\nthumbnail reduce=4: %d bytes of PGM in %v (packet bytes touched: %s)\n",
		len(body), el.Round(time.Microsecond), hdr.Get("X-PJ2K-Packet-Bytes"))

	// 3. A full-resolution viewport: only the tiles under the window decode.
	const viewport = "/img/demo?x0=300&y0=300&x1=700&y1=700"
	body, el, hdr = get(viewport)
	fmt.Printf("viewport 400x400 cold: %d bytes in %v (packet bytes: %s, tile decodes so far: %d)\n",
		len(body), el.Round(time.Microsecond), hdr.Get("X-PJ2K-Packet-Bytes"), srv.TileDecodes())

	// 4. The same viewport again: every tile is a cache hit; no tier-1 runs.
	_, el, _ = get(viewport)
	fmt.Printf("viewport 400x400 warm: %v (tile decodes unchanged: %d)\n",
		el.Round(time.Microsecond), srv.TileDecodes())

	// 5. A color viewport: the same window protocol against the Csiz=3
	// stream; the response is binary PPM and the packet accounting covers
	// all three components.
	body, el, hdr = get("/img/demo-color?x0=300&y0=300&x1=700&y1=700")
	fmt.Printf("color viewport 400x400: %d bytes of PPM in %v (packet bytes: %s)\n",
		len(body), el.Round(time.Microsecond), hdr.Get("X-PJ2K-Packet-Bytes"))

	// 6. A raw window for a pixel-pushing client: headerless planar samples
	// whose width the client negotiates from X-PJ2K-Max-Value — 1 byte per
	// sample when maxval <= 255, big-endian 2 bytes otherwise. The headers
	// alone fully describe the payload.
	body, el, hdr = get("/img/demo?x0=0&y0=0&x1=64&y1=64&format=raw")
	maxval, err := strconv.Atoi(hdr.Get("X-PJ2K-Max-Value"))
	if err != nil {
		log.Fatalf("raw response missing X-PJ2K-Max-Value: %v", err)
	}
	bytesPerSample := 1
	if maxval > 255 {
		bytesPerSample = 2
	}
	first := int(body[0])
	if bytesPerSample == 2 {
		first = int(body[0])<<8 | int(body[1])
	}
	fmt.Printf("raw 64x64 window: %d bytes = %d samples x %d byte(s) (maxval %d, first sample %d) in %v\n",
		len(body), len(body)/bytesPerSample, bytesPerSample, maxval, first, el.Round(time.Microsecond))

	// 7. Progressive refinement for a remote decoder: a valid codestream
	// holding only the first quality layer, sliced from the packet index.
	body, el, _ = get("/img/demo/stream?layers=1")
	lowQ, err := jp2k.Decode(body, jp2k.DecodeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("layer-1 stream: %d of %d bytes in %v, decodes to %dx%d\n",
		len(body), len(cs), el.Round(time.Microsecond), lowQ.Width, lowQ.Height)

	// 8. The server's own accounting.
	body, _, _ = get("/stats")
	fmt.Printf("\nstats:\n%s", body)
}
