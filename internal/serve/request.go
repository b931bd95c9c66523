package serve

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"pj2k/internal/jp2k"
)

// regionRequest is one validated /img/{id} request: everything the window
// assembly needs, resolved against the image before any tile is touched, so a
// request that is going to be refused costs no decode.
type regionRequest struct {
	img             *Image
	discard, layers int
	colW, rowH      []int     // tile-grid prefix sums at discard (Image.Grid)
	win             jp2k.Rect // window on the reduced grid, clipped to the image
	format          string    // "pgm", "ppm" or "raw"
	ncomp, maxval   int
}

// queryInt parses an integer query parameter, using def when absent.
func queryInt(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q", name, v)
	}
	return n, nil
}

// parseRegion validates a region query against img. On failure it returns
// the status to answer with (400, or 413 for a window over maxPixels).
func parseRegion(img *Image, q url.Values, maxPixels int64) (regionRequest, int, error) {
	p := &img.Index.Params
	req := regionRequest{img: img, ncomp: p.Components(), maxval: 255}
	if p.BitDepth > 8 {
		req.maxval = 1<<uint(p.BitDepth) - 1
	}
	var errs [6]error
	req.discard, errs[0] = queryInt(q, "reduce", 0)
	req.layers, errs[1] = queryInt(q, "layers", 0)
	req.discard = img.ClampDiscard(req.discard)
	req.layers = img.ClampLayers(req.layers)
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
	if req.format = q.Get("format"); req.format == "" {
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
