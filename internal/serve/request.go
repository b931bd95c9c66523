package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"pj2k/internal/jp2k"
	"pj2k/internal/t2"
)

// request is one admitted request of an image endpoint: /img/{id}, /info or
// /stream. All three have one shape: (1) admit, (2) look up the image, (3)
// refuse it if quarantined, (4) make the request, (5) do the work, (6) record
// what its reads said about the image's IO health, (7) write the response
// once. begin runs steps 1-4. Which source a served read goes through is
// decided here alone: every read of a request goes through source, so it is
// retried, counted in /stats io and spends the request's one retry budget,
// and a request that reads nothing (every tile cached, every packet map
// built) builds no source.
type request struct {
	s      *Server
	img    *Image
	ctx    context.Context // the client's, plus the server-side deadline
	cancel context.CancelFunc
	src    *t2.Source // built by the first read
}

// begin runs steps 1-4 into rq and reports whether the caller goes on, in
// which case it must defer rq.end and the outcome is outcomeError, the
// verdict of a request that fails from here. Otherwise begin has answered
// (shed, expired, 404 or quarantined) and the outcome says how.
func (s *Server) begin(rq *request, w http.ResponseWriter, r *http.Request) (reqOutcome, bool) {
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
		default: // at capacity: 503 with a Retry-After hint, counted apart from errors
			s.shed.Inc()
			w.Header().Set("Retry-After", "1")
			s.fail(w, http.StatusServiceUnavailable, "server at capacity; retry shortly")
			return outcomeShed, false
		}
	}
	// The work-bounding context: the client's (cancelled on disconnect) plus
	// the server-side deadline when configured.
	*rq = request{s: s, ctx: r.Context(), cancel: func() {}}
	if s.opts.Timeout > 0 {
		rq.ctx, rq.cancel = context.WithTimeout(rq.ctx, s.opts.Timeout)
	}
	img, ok := s.store.Get(r.PathValue("id"))
	outcome := outcomeError
	switch {
	case rq.ctx.Err() != nil: // no work for a request nobody will read
		outcome = s.failCtx(w, rq.ctx.Err())
	case !ok:
		outcome = outcomeClientError
		s.fail(w, http.StatusNotFound, "unknown image %q", r.PathValue("id"))
	case s.refuseQuarantined(w, img):
		outcome = outcomeQuarantined
	default:
		rq.img = img
		return outcome, true
	}
	rq.end()
	return outcome, false
}

// end releases the context and the admission slot begin took.
func (rq *request) end() {
	rq.cancel()
	if rq.s.inflight != nil {
		<-rq.s.inflight
	}
}

// source returns the request's source, building it on the first call: the
// image's own when the IO layer is off, otherwise a resilient wrapper under
// the server's policy. A request issues its reads one at a time.
func (rq *request) source() *t2.Source {
	if rq.src == nil {
		rq.src = rq.img.src
		if pol := &rq.s.ioPolicy; pol.Retries > 0 || pol.ReadTimeout > 0 {
			rq.src = t2.ResilientSource(rq.img.src, *pol)
		}
	}
	return rq.src
}

// noteIO is step 6 for what /info and /stream read through the index (a tile
// decode records its own, in decodeTile): an IO error counts against the
// image, and a request that read and did not fail resets its streak.
func (rq *request) noteIO(err error) {
	if failed := err != nil && t2.IsIOError(err); failed || err == nil && rq.src != nil {
		rq.s.recordIO(rq.img, failed, err)
	}
}

// regionRequest is one validated /img/{id} request: everything the window
// assembly needs, resolved against the image before any tile is touched, so a
// request that is going to be refused costs no decode.
type regionRequest struct {
	discard, layers int
	colW, rowH      []int     // tile-grid prefix sums at discard (Image.Grid)
	win             jp2k.Rect // window on the reduced grid, clipped to the image
	tx0, ty0        int       // the tile cells win overlaps: [tx0, tx1) x [ty0, ty1)
	tx1, ty1        int
	format          string // "pgm", "ppm" or "raw"
	ncomp, maxval   int
}

// queryGet returns the first value of key in the raw query q, as
// url.ParseQuery(q).Get(key) does, without building the map: empty pairs,
// pairs holding a ';' and pairs whose key or value fails to unescape are
// dropped, and url.QueryUnescape copies only a part that holds '%' or '+'.
func queryGet(q, key string) string {
	for q != "" {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// queryInt parses an integer parameter of the raw query q, using def when
// absent.
func queryInt(q, name string, def int) (int, error) {
	v := queryGet(q, name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q", name, v)
	}
	return n, nil
}

// parseRegion validates a raw region query against img. On failure it
// returns the status to answer with (400, or 413 for a window over
// maxPixels).
func parseRegion(img *Image, q string, maxPixels int64) (regionRequest, int, error) {
	p := &img.Index.Params
	req := regionRequest{ncomp: p.Components(), maxval: 255}
	if p.BitDepth > 8 {
		req.maxval = 1<<uint(p.BitDepth) - 1
	}
	var errs [6]error
	req.discard, errs[0] = queryInt(q, "reduce", 0)
	req.layers, errs[1] = queryInt(q, "layers", 0)
	req.discard, req.layers = p.Clamp(req.discard, req.layers)
	req.colW, req.rowH = img.Grid(req.discard)
	fullW, fullH := req.colW[len(req.colW)-1], req.rowH[len(req.rowH)-1]
	var x0, y0, x1, y1 int
	x0, errs[2] = queryInt(q, "x0", 0)
	y0, errs[3] = queryInt(q, "y0", 0)
	x1, errs[4] = queryInt(q, "x1", fullW)
	y1, errs[5] = queryInt(q, "y1", fullH)
	for _, err := range errs {
		if err != nil {
			return req, http.StatusBadRequest, err
		}
	}
	req.win = jp2k.Rect{X0: x0, Y0: y0, X1: x1, Y1: y1}.Intersect(jp2k.Rect{X1: fullW, Y1: fullH})
	if req.win.Empty() {
		return req, http.StatusBadRequest, fmt.Errorf("empty window [%d,%d)x[%d,%d) of %dx%d at reduce=%d",
			x0, x1, y0, y1, fullW, fullH, req.discard)
	}
	if int64(req.win.Dx())*int64(req.win.Dy()) > maxPixels {
		return req, http.StatusRequestEntityTooLarge, fmt.Errorf("window %dx%d exceeds the %d-pixel limit; raise reduce=",
			req.win.Dx(), req.win.Dy(), maxPixels)
	}
	req.tx0, req.tx1 = tileSpan(req.colW, req.win.X0, req.win.X1)
	req.ty0, req.ty1 = tileSpan(req.rowH, req.win.Y0, req.win.Y1)
	if req.format = queryGet(q, "format"); req.format == "" {
		switch req.ncomp { // grayscale defaults to PGM, color to PPM, anything else to raw
		case 1:
			req.format = "pgm"
		case 3:
			req.format = "ppm"
		default:
			req.format = "raw"
		}
	}
	switch {
	case contentType(req.format) == "":
		return req, http.StatusBadRequest, fmt.Errorf("unknown format %q", req.format)
	case req.format == "pgm" && req.ncomp != 1:
		return req, http.StatusBadRequest, fmt.Errorf("format=pgm needs 1 component, image has %d (use ppm or raw)", req.ncomp)
	case req.format == "ppm" && req.ncomp != 3:
		return req, http.StatusBadRequest, fmt.Errorf("format=ppm needs 3 components, image has %d", req.ncomp)
	}
	return req, 0, nil
}
