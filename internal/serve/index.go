package serve

import (
	"net/http"
	"strconv"

	"pj2k/internal/dwt"
)

// infoResponse is the /img/{id}/info payload.
type infoResponse struct {
	ID          string     `json:"id"`
	Width       int        `json:"width"`
	Height      int        `json:"height"`
	TileW       int        `json:"tile_w"`
	TileH       int        `json:"tile_h"`
	Tiles       int        `json:"tiles"`
	Components  int        `json:"components"`
	MCT         bool       `json:"mct"`
	Levels      int        `json:"levels"`
	Layers      int        `json:"layers"`
	BitDepth    int        `json:"bit_depth"`
	Kernel      string     `json:"kernel"`
	Bytes       int        `json:"bytes"`
	PacketBytes int        `json:"packet_bytes"`
	Reductions  []sizeInfo `json:"reductions"`
}

type sizeInfo struct {
	Reduce int `json:"reduce"`
	Width  int `json:"width"`
	Height int `json:"height"`
}

// handleInfo answers /img/{id}/info: the image's geometry and its packet
// bytes. Those come from every tile's packet map (RegionBytes over the tile
// grid), so a cold /info reads every tile body once, through the request's
// source, and a warm one reads nothing.
func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	var rq request
	if _, ok := s.begin(&rq, w, r); !ok {
		return
	}
	defer rq.end()
	img := rq.img
	p := img.Params()
	ntx, nty := p.NumTiles()
	packetBytes, err := img.Index.RegionBytes(0, 0, ntx, nty, 0, 0, rq.source)
	rq.noteIO(err)
	if err != nil {
		// A tile that cannot be indexed is a 500, as on /stream, not a 200
		// with a short packet_bytes.
		s.fail(w, http.StatusInternalServerError, "%v", err)
		return
	}
	kernel := "9x7"
	if p.Kernel == dwt.Rev53 {
		kernel = "5x3"
	}
	info := infoResponse{
		ID: img.ID, Width: p.Width, Height: p.Height,
		TileW: p.TileW, TileH: p.TileH, Tiles: img.Index.NumTiles(),
		Components: p.Components(), MCT: p.MCT,
		Levels: p.Levels, Layers: p.Layers, BitDepth: p.BitDepth,
		Kernel: kernel, Bytes: int(img.Size()), PacketBytes: packetBytes,
	}
	for d := 0; d <= p.Levels; d++ {
		colW, rowH := img.Grid(d)
		info.Reductions = append(info.Reductions, sizeInfo{
			Reduce: d, Width: colW[len(colW)-1], Height: rowH[len(rowH)-1],
		})
	}
	s.writeJSON(w, info)
}

// handleStream answers /img/{id}/stream?layers=N: a valid codestream carrying
// the image's first N quality layers, sliced from the packet index without
// decoding and read through the request's source.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	var rq request
	if _, ok := s.begin(&rq, w, r); !ok {
		return
	}
	defer rq.end()
	layers, err := queryInt(r.URL.RawQuery, "layers", 0)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	ix, src := rq.img.Index, rq.source() // a stream reads every tile's prefix
	_, layers = ix.Params.Clamp(0, layers)
	// Content-Length comes from the packet maps: PrefixSize forces every
	// tile's map, so a tile that cannot be indexed is a 500 here instead of a
	// 200 cut short.
	n, err := ix.PrefixSize(layers, src)
	if err != nil {
		rq.noteIO(err)
		s.fail(w, http.StatusInternalServerError, "%v", err)
		return
	}
	h := w.Header() // canonical keys, assigned without Set's canonicalisation
	h["Content-Type"] = []string{"application/octet-stream"}
	h["X-Pj2k-Layers"] = []string{strconv.Itoa(layers)}
	h["Content-Length"] = []string{strconv.FormatInt(n, 10)}
	// CopyPrefix streams the codestream straight to the response, reading
	// each tile's prefix as it goes, so IO health is recorded after it. A
	// failure now, of a write or a read, comes after the status line: it is
	// counted, and net/http closes the connection short of Content-Length,
	// so the client sees the truncation.
	_, err = ix.CopyPrefix(w, layers, src)
	rq.noteIO(err)
	if err != nil {
		s.errors.Inc()
	}
}
