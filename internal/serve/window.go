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
	if !s.admit() {
		outcome = outcomeShed
		s.shedRequest(w)
		return
	}
	defer s.release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	img, ok, err := s.store.Lookup(ctx, r.PathValue("id"))
	if err != nil {
		outcome = s.failCtx(w, err)
		return
	}
	if !ok {
		outcome = outcomeClientError
		s.fail(w, http.StatusNotFound, "unknown image %q", r.PathValue("id"))
		return
	}
	if s.isQuarantined(img) {
		outcome = outcomeQuarantined
		s.rejectQuarantined(w, img.ID)
		return
	}
	req, code, err := parseRegion(img, r.URL.Query(), s.opts.MaxPixels)
	if err != nil {
		outcome = outcomeClientError
		s.fail(w, code, "%v", err)
		return
	}

	buf := bodies.Get().(*[]byte)
	defer bodies.Put(buf)
	body, tiles, agg, err := s.assembleWindow(ctx, &req, *buf)
	*buf = body // keep the storage the assembly may have grown
	if err != nil {
		if ctx.Err() != nil {
			outcome = s.failCtx(w, ctx.Err())
		} else {
			s.fail(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	outcome = agg

	h := w.Header()
	// The packet-byte cost of this window per the index (all components):
	// what a byte-range transport (JPIP-style) would have shipped instead of
	// pixels. A tile whose packet map fails (served concealed) leaves the
	// header out rather than under-reporting it.
	if n, err := img.Index.RegionBytes(tiles, req.discard, req.layers); err == nil {
		h.Set("X-PJ2K-Packet-Bytes", strconv.Itoa(n))
	}
	h.Set("Content-Type", contentType(req.format))
	if req.format == "raw" {
		// Headerless samples in planar component order: 1 byte/sample when
		// every sample fits a byte (maxval <= 255), big-endian 2 bytes/sample
		// otherwise. X-PJ2K-Max-Value tells the client which — without it a
		// raw payload is uninterpretable.
		h.Set("X-PJ2K-Width", strconv.Itoa(req.win.Dx()))
		h.Set("X-PJ2K-Height", strconv.Itoa(req.win.Dy()))
		h.Set("X-PJ2K-Components", strconv.Itoa(req.ncomp))
		h.Set("X-PJ2K-Max-Value", strconv.Itoa(req.maxval))
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
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
// of the window, copied out of the cached wire tiles into its final position —
// whole tile rows for the planar formats, three interleaved byte runs for PPM —
// with no intermediate window raster and no clamp: the samples were clamped
// and narrowed once, when their tile was decoded. The tiles partition the
// window (each is its whole grid cell), so every byte past the header is
// written and the recycled storage is not cleared. It returns the body, the
// indices of the tiles it touched, and the request's outcome: the per-tile
// cache outcomes aggregated (worst wins), a damaged resilient decode
// overriding them all.
func (s *Server) assembleWindow(ctx context.Context, req *regionRequest, buf []byte) (body []byte, tiles []int, agg reqOutcome, err error) {
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
	// PPM interleaves its three components, so pixel i of the window starts at
	// sample 3i; PGM and raw are planar, so sample (c, i) sits at c*w*h + i.
	interleaved := req.format == "ppm"

	tx0, tx1 := tileSpan(colW, win.X0, win.X1)
	ty0, ty1 := tileSpan(rowH, win.Y0, win.Y1)
	tiles = make([]int, 0, (tx1-tx0)*(ty1-ty0))
	// One decode closure per request, not per tile: GetOrDecode calls it
	// synchronously, so it may read the loop's current tx, ty.
	var tx, ty int
	damaged := false
	// One source per request, built on its first miss (an all-hit request
	// builds none): every miss reads through it and spends its retry budget.
	var src *t2.Source
	decode := func() ([]byte, error) {
		if src == nil {
			src = s.requestSource(req.img, s.newRequestBudget())
		}
		pl, dmg, err := s.decodeTile(ctx, req.img, src, colW, rowH, tx, ty, req.discard, req.layers)
		damaged = damaged || dmg
		if err != nil {
			return nil, err
		}
		return wireTile(pl, req.maxval), nil
	}
	for ty = ty0; ty < ty1; ty++ {
		for tx = tx0; tx < tx1; tx++ {
			tiles = append(tiles, ty*(len(colW)-1)+tx)
			key := TileKey{Image: req.img.ID, TX: tx, TY: ty, Discard: req.discard, Layers: req.layers}
			tile, co, err := s.cache.GetOrDecode(ctx, key, decode)
			switch co {
			case OutcomeMiss:
				agg = max(agg, outcomeMiss)
			case OutcomeCoalesced:
				agg = max(agg, outcomeCoalesced)
			}
			if err != nil {
				return body, tiles, agg, fmt.Errorf("tile (%d,%d): %w", tx, ty, err)
			}
			// The tile's size, its overlap with the window in tile
			// coordinates, and where its first sample lands in the window;
			// then the same in bytes.
			tw, th := colW[tx+1]-colW[tx], rowH[ty+1]-rowH[ty]
			lx0, lx1 := max(win.X0-colW[tx], 0), min(win.X1, colW[tx+1])-colW[tx]
			ly0, ly1 := max(win.Y0-rowH[ty], 0), min(win.Y1, rowH[ty+1])-rowH[ty]
			ox, oy := colW[tx]+lx0-win.X0, rowH[ty]+ly0-win.Y0
			plane, run := tw*th*bps, (lx1-lx0)*bps
			for y := ly0; y < ly1; y++ {
				px := (oy+y-ly0)*w + ox  // the row's first pixel in the window
				at := (y*tw + lx0) * bps // its first sample in a tile plane
				if interleaved {
					interleave3(body[hdr+3*px*bps:], bps, tile[at:][:run], tile[plane+at:][:run], tile[2*plane+at:][:run])
					continue
				}
				for ci := range req.ncomp {
					copy(body[hdr+(ci*w*h+px)*bps:], tile[ci*plane+at:][:run])
				}
			}
		}
	}
	if damaged {
		agg = outcomeDamaged
	}
	return body, tiles, agg, nil
}

// wireTile is what the server caches of a decoded tile: the bytes a planar
// response carries, packed once at the miss so a hit only copies. Its
// components follow one another, each row-major, every sample clamped into
// [0, maxval] and raster.SampleBytes(maxval) bytes wide (big-endian pairs
// above 255).
func wireTile(pl *raster.Planar, maxval int) []byte {
	tw, bps := pl.Width(), raster.SampleBytes(maxval)
	plane := tw * pl.Height() * bps
	out := make([]byte, plane*pl.NComp())
	for ci, c := range pl.Comps {
		for y := range c.Height {
			raster.PackSamples(out[ci*plane+y*tw*bps:], maxval, c.Row(y))
		}
	}
	return out
}

// interleave3 writes three equal runs of bps-byte samples into dst as pixel
// triplets: the PPM row layout. At one byte per sample it moves four pixels
// per iteration, which ran ~1.5x faster than one pixel per iteration over
// rows of 128x128 tiles.
func interleave3(dst []byte, bps int, r, g, b []byte) {
	n := len(r)
	g, b, dst = g[:n], b[:n], dst[:3*n]
	if bps == 2 {
		for i := 0; i+1 < n; i += 2 {
			d := dst[3*i : 3*i+6 : 3*i+6]
			d[0], d[1], d[2], d[3], d[4], d[5] = r[i], r[i+1], g[i], g[i+1], b[i], b[i+1]
		}
		return
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		r4, g4, b4, d := r[i:i+4:i+4], g[i:i+4:i+4], b[i:i+4:i+4], dst[3*i:3*i+12:3*i+12]
		d[0], d[1], d[2] = r4[0], g4[0], b4[0]
		d[3], d[4], d[5] = r4[1], g4[1], b4[1]
		d[6], d[7], d[8] = r4[2], g4[2], b4[2]
		d[9], d[10], d[11] = r4[3], g4[3], b4[3]
	}
	for ; i < n; i++ {
		dst[3*i], dst[3*i+1], dst[3*i+2] = r[i], g[i], b[i]
	}
}

// decodeTile produces one cached tile variant (every component), charging the
// decode counter. The header and tile-part chain come from the image's index,
// so the decode reads only the tile's body, through src (the request's
// source). The context bounds the decode between pipeline stages; in
// resilient mode damage is absorbed into the server's counters and the
// degraded tile is served (and cached) like any other — the damaged return
// reports it so the request can be classified. The pooled decoder carries the
// server's codec metrics, so every tile decode also lands in the per-stage
// pipeline histograms.
func (s *Server) decodeTile(ctx context.Context, img *Image, src *t2.Source, colW, rowH []int, tx, ty, discard, layers int) (pl *raster.Planar, damaged bool, err error) {
	s.tileDecodes.Inc()
	dec := s.decoders.Get().(*jp2k.Decoder)
	defer s.decoders.Put(dec)
	region := jp2k.Rect{X0: colW[tx], Y0: rowH[ty], X1: colW[tx+1], Y1: rowH[ty+1]}
	pl, err = dec.DecodeRegion(img.Index, src, region, jp2k.DecodeOptions{
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
	if ioFailed {
		s.noteIOFailure(img, err)
	} else if err == nil {
		s.noteIOSuccess(img)
	}
	return pl, damaged, err
}
