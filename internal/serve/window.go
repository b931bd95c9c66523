package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pj2k/internal/jp2k"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// bodies recycles region response bodies between requests.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// spareTiles recycles the storage of wire tiles the cache does not keep: a
// miss with the cache off, or of a tile too large to admit, is packed into a
// request's spare buffer, copied into the body and handed back.
var spareTiles = sync.Pool{New: func() any { return new([]byte) }}

// contentType returns the media type of a region response format, "" for a
// format the server does not speak.
func contentType(format string) string {
	switch format {
	case "pgm":
		return "image/x-portable-graymap"
	case "ppm":
		return "image/x-portable-pixmap"
	case "raw":
		return "application/octet-stream"
	}
	return ""
}

// handleRegion answers /img/{id}: validate the request, assemble the whole
// response body in wire format from the cached tiles, then send it with its
// Content-Length in one Write. The body is finished before the status line
// goes out, on purpose: a tile that fails mid-window must still produce a
// 5xx/504, never a truncated 200, and MaxPixels already bounds the buffer.
func (s *Server) handleRegion(w http.ResponseWriter, r *http.Request) {
	// Outcome classification for the latency histograms: every return path
	// below leaves its verdict in outcome; the deferred observe records the
	// end-to-end latency under it (including panics, as outcomeError).
	start := time.Now()
	outcome := outcomeError
	defer func() { s.latency[outcome].Observe(time.Since(start)) }()
	var rq request
	var ok bool
	if outcome, ok = s.begin(&rq, w, r); !ok {
		return
	}
	defer rq.end()
	img := rq.img
	req, code, err := parseRegion(img, r.URL.RawQuery, s.opts.MaxPixels)
	if err != nil {
		outcome = outcomeClientError
		s.fail(w, code, "%v", err)
		return
	}

	buf := bodies.Get().(*[]byte)
	defer bodies.Put(buf)
	body, agg, err := s.assembleWindow(&rq, &req, *buf)
	*buf = body // keep the storage the assembly may have grown
	if err != nil {
		if rq.ctx.Err() != nil {
			outcome = s.failCtx(w, rq.ctx.Err())
		} else {
			s.fail(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	outcome = agg

	// Every key below is written in the canonical form Header.Set would
	// store (X-PJ2K-Width becomes X-Pj2k-Width) and assigned straight into
	// the map, so no request canonicalises a key.
	h := w.Header()
	// The packet-byte cost of this window per the index (all components):
	// what a byte-range transport (JPIP-style) would have shipped instead of
	// pixels. Maps not built yet are read through the request's source. A
	// tile whose packet map fails (served concealed) leaves the header out
	// rather than under-reporting it, and moves no IO health (see decodeTile).
	if n, err := img.Index.RegionBytes(req.tx0, req.ty0, req.tx1, req.ty1, req.discard, req.layers, rq.source); err == nil {
		h["X-Pj2k-Packet-Bytes"] = []string{strconv.Itoa(n)}
	}
	h["Content-Type"] = []string{contentType(req.format)}
	if req.format == "raw" {
		// Headerless samples in planar component order: 1 byte/sample when
		// every sample fits a byte (maxval <= 255), big-endian 2 bytes/sample
		// otherwise. X-PJ2K-Max-Value tells the client which — without it a
		// raw payload is uninterpretable.
		h["X-Pj2k-Width"] = []string{strconv.Itoa(req.win.Dx())}
		h["X-Pj2k-Height"] = []string{strconv.Itoa(req.win.Dy())}
		h["X-Pj2k-Components"] = []string{strconv.Itoa(req.ncomp)}
		h["X-Pj2k-Max-Value"] = []string{strconv.Itoa(req.maxval)}
	}
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	if _, err := w.Write(body); err != nil {
		s.errors.Inc()
	}
}

// tileSpan returns the half-open range of grid cells overlapping [lo, hi),
// given the grid's prefix sums.
func tileSpan(edges []int, lo, hi int) (t0, t1 int) {
	for edges[t0+1] <= lo {
		t0++
	}
	for t1 = t0 + 1; edges[t1] < hi; t1++ {
	}
	return t0, t1
}

// assembleWindow builds req's complete response body in buf's storage (grown
// when too small): the PNM header, if the format has one, then every sample
// of the window, copied out of the wire tiles (cached, or packed at a miss)
// into its final position with no intermediate window raster and no clamp:
// the samples were clamped, narrowed and put in the image's default order
// once, when their tile was decoded. A tile's overlap with the window is one
// strided loop per tile (per component when planar): a PGM or PPM response,
// and raw on any image but a colour one, copies one run per tile row; only
// raw on a colour image splits each row's pixels into the three planes. The
// tiles partition the window (each is its whole grid cell), so every byte
// past the header is written and the recycled storage is not cleared. It
// returns the body and the request's outcome: the per-tile cache outcomes aggregated (worst wins), a damaged
// resilient decode overriding them all. Every miss reads through rq's source,
// built on the first one (an all-hit request builds none).
func (s *Server) assembleWindow(rq *request, req *regionRequest, buf []byte) (body []byte, agg reqOutcome, err error) {
	win, colW, rowH := req.win, req.colW, req.rowH
	w, h, bps := win.Dx(), win.Dy(), raster.SampleBytes(req.maxval)
	body = buf[:0]
	if req.format != "raw" {
		body = raster.AppendPNMHeader(body, req.ncomp, w, h, req.maxval)
	}
	hdr := len(body)
	n := hdr + w*h*req.ncomp*bps
	if cap(body) < n {
		body = append(make([]byte, 0, n), body...)
	}
	body = body[:n]
	// A wire tile is planes planes of pix-byte pixels (wireTile): one plane of
	// interleaved triplets for 3 components, one plane per component
	// otherwise. The body is laid out the same way, unless split: raw on a
	// colour image wants the components one after another, so each tile row
	// is split into three planes of bps-byte pixels.
	planes, pix := req.ncomp, bps
	if req.ncomp == 3 {
		planes, pix = 1, 3*bps
	}
	split, bodyPix := req.ncomp == 3 && req.format == "raw", pix
	if split {
		bodyPix = bps
	}

	// One decode closure per request, not per tile: getOrDecode calls it
	// synchronously, so it may read the loop's current tx, ty, tw, th.
	var tx, ty, tw, th int
	damaged := false
	// A miss the cache will keep is packed into storage of its own. Any other
	// is packed into the request's spare buffer, taken on the first such miss;
	// the tile holds that storage until it is copied into the body, then hands
	// it back, unless a waiter joined the miss and shares the tile.
	var spare *[]byte
	defer func() {
		if spare != nil {
			spareTiles.Put(spare)
		}
	}()
	decode := func() ([]byte, error) {
		var buf []byte
		if !s.cache.admits(wireCharge(tw * th * req.ncomp * bps)) {
			if spare == nil {
				spare = spareTiles.Get().(*[]byte)
			}
			buf, *spare = *spare, nil // the tile takes the storage
		}
		tile, dmg, err := s.decodeTile(rq.ctx, rq.img, rq.source(), colW, rowH, tx, ty, req.discard, req.layers, req.maxval, buf)
		damaged = damaged || dmg
		return tile, err
	}
	for ty = req.ty0; ty < req.ty1; ty++ {
		for tx = req.tx0; tx < req.tx1; tx++ {
			tw, th = colW[tx+1]-colW[tx], rowH[ty+1]-rowH[ty]
			key := TileKey{Image: rq.img.ID, TX: tx, TY: ty, Discard: req.discard, Layers: req.layers}
			tile, co, owned, err := s.cache.getOrDecode(rq.ctx, key, decode)
			switch co {
			case cacheMiss:
				agg = max(agg, outcomeMiss)
			case cacheCoalesced:
				agg = max(agg, outcomeCoalesced)
			}
			if err != nil {
				return body, agg, fmt.Errorf("tile (%d,%d): %w", tx, ty, err)
			}
			// The tile's overlap with the window in tile coordinates, and
			// where its first pixel lands in the window.
			lx0, lx1 := max(win.X0-colW[tx], 0), min(win.X1, colW[tx+1])-colW[tx]
			ly0, ly1 := max(win.Y0-rowH[ty], 0), min(win.Y1, rowH[ty+1])-rowH[ty]
			ox, oy := colW[tx]+lx0-win.X0, rowH[ty]+ly0-win.Y0
			run := (lx1 - lx0) * pix
			for p := range planes {
				at := ((p*th+ly0)*tw + lx0) * pix   // the overlap's first byte in the tile
				to := hdr + ((p*h+oy)*w+ox)*bodyPix // and in the body
				for range ly1 - ly0 {
					if split {
						deinterleave3(body[to:], body[to+w*h*bps:], body[to+2*w*h*bps:], bps, tile[at:at+run])
					} else {
						copy(body[to:to+run], tile[at:at+run])
					}
					at, to = at+tw*pix, to+w*bodyPix
				}
			}
			if owned { // nobody else holds the tile: its storage is spare again
				*spare = tile
			}
		}
	}
	if damaged {
		agg = outcomeDamaged
	}
	return body, agg, nil
}

// wireTile is what the server caches of a decoded tile: its samples packed
// once at the miss, in the order of the image's default response format, so
// a hit only copies. Three components are pixel-interleaved, as PPM carries
// them; any other count is planar, components one after another, as PGM and
// raw carry them. Each plane is row-major, every sample clamped into
// [0, maxval] and raster.SampleBytes(maxval) bytes wide (big-endian pairs
// above 255). It packs into dst's storage, made anew when too small.
func wireTile(dst []byte, pl *raster.Planar, maxval int) []byte {
	tw, bps := pl.Width(), raster.SampleBytes(maxval)
	plane := tw * pl.Height() * bps
	n := plane * pl.NComp()
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	out := dst[:n]
	if c := pl.Comps; len(c) == 3 {
		for y := range pl.Height() {
			raster.PackSamples(out[3*y*tw*bps:], maxval, c[0].Row(y), c[1].Row(y), c[2].Row(y))
		}
		return out
	}
	for ci, c := range pl.Comps {
		for y := range c.Height {
			raster.PackSamples(out[ci*plane+y*tw*bps:], maxval, c.Row(y))
		}
	}
	return out
}

// deinterleave3 splits a run of pixel triplets of bps-byte samples into the
// three planes r, g and b: a row of a colour wire tile into a raw response.
func deinterleave3(r, g, b []byte, bps int, src []byte) {
	for i := range len(src) / 3 {
		px, k := i/bps*3*bps, i%bps
		r[i], g[i], b[i] = src[px+k], src[px+bps+k], src[px+2*bps+k]
	}
}

// decodeTile produces one tile variant (every component) in wire form, packed
// into buf's storage (wireTile), charging the decode counter. The header and
// tile-part chain come from the image's index, so the decode reads only the
// tile's body, through src (the request's source). The context bounds the
// decode between pipeline stages; in resilient mode damage is absorbed into
// the server's counters and the degraded tile is served (and cached) like any
// other — the damaged return reports it so the request can be classified.
// The pooled decoder carries the server's codec metrics, so every tile decode
// also lands in the per-stage pipeline histograms.
func (s *Server) decodeTile(ctx context.Context, img *Image, src *t2.Source, colW, rowH []int, tx, ty, discard, layers, maxval int, buf []byte) (tile []byte, damaged bool, err error) {
	s.tileDecodes.Inc()
	dec := s.decoders.Get().(*jp2k.Decoder)
	// The decoded tile is the Decoder's own output image, so it is packed
	// before the deferred Put, after which another request may decode over it.
	defer s.decoders.Put(dec)
	region := jp2k.Rect{X0: colW[tx], Y0: rowH[ty], X1: colW[tx+1], Y1: rowH[ty+1]}
	pl, err := dec.DecodeRegion(img.Index, src, region, jp2k.DecodeOptions{
		DiscardLevels: discard,
		MaxLayers:     layers,
		Workers:       s.opts.TileWorkers,
		Resilient:     s.opts.Resilient,
		Ctx:           ctx,
	})
	// Per-image IO health: a decode that failed on (or concealed) unreadable
	// source bytes counts against the image; a decode that read cleanly
	// resets the streak. Context cancellations are the client's, not the
	// source's, and move nothing.
	ioFailed := err != nil && t2.IsIOError(err)
	if err == nil && s.opts.Resilient {
		if dmg := dec.Damage(); dmg.Damaged() {
			t := dmg.Totals()
			damaged = true
			s.damagedTiles.Inc()
			s.packetsLost.Add(int64(t.PacketsLost))
			s.blocksConcealed.Add(int64(t.BlocksConcealed))
			if t.IOUnreadable > 0 {
				s.ioUnreadableTiles.Add(int64(t.IOUnreadable))
				ioFailed = true
			}
		}
	}
	if ioFailed || err == nil {
		s.recordIO(img, ioFailed, err)
	}
	if err != nil {
		return nil, false, err
	}
	return wireTile(buf, pl, maxval), damaged, nil
}
