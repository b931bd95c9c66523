package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pj2k/internal/dwt"
	"pj2k/internal/jp2k"
	"pj2k/internal/raster"
	"pj2k/internal/serve"
	"pj2k/internal/t2"
)

// servedImage is one image of the served corpus: its codestream on disk,
// registered with the store behind a counting io.ReaderAt.
type servedImage struct {
	it      *item
	id      string
	params  t2.Params
	file    *os.File
	counter *countingReaderAt
	src     *t2.Source
}

// serveEnv is a running tile server over the served corpus, in process
// behind httptest on loopback, with P keep-alive clients.
type serveEnv struct {
	P       int
	imgs    []*servedImage
	dir     string
	store   *serve.Store
	srv     *serve.Server
	ts      *httptest.Server
	clients []*client
	fails   *failures
	refs    map[[3]int]*raster.Planar // oracle: direct decodes by (img, reduce, layers)
	dec     *jp2k.Decoder
}

// client is one keep-alive connection.
type client struct {
	hc  *http.Client
	buf []byte
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}}
}

// get fetches url and returns the status and the body, which aliases the
// client's buffer until the next call. The returned time is send to last
// body byte.
func (c *client) get(url string) (status int, body []byte, dt time.Duration, err error) {
	t0 := time.Now()
	resp, err := c.hc.Get(url)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	defer resp.Body.Close()
	if n := int(resp.ContentLength); n >= 0 {
		if cap(c.buf) < n {
			c.buf = make([]byte, n)
		}
		c.buf = c.buf[:n]
		_, err = io.ReadFull(resp.Body, c.buf)
	} else {
		b := bytes.NewBuffer(c.buf[:0])
		_, err = b.ReadFrom(resp.Body)
		c.buf = b.Bytes()
	}
	return resp.StatusCode, c.buf, time.Since(t0), err
}

// setupServe writes the encoded items to disk, ingests them through the
// io.ReaderAt path (t2.NewSource over a counting reader over the file,
// Store.AddSource) and starts the server. Set-up ends with one /info per
// image — a viewer's first call — which also forces every tile's packet map.
func setupServe(items []*item, P int, cacheBytes int64, outDir string, fails *failures) (*serveEnv, error) {
	dir, err := os.MkdirTemp(outDir, "corpus-")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{P: P, dir: dir, store: serve.NewStore(), fails: fails,
		refs: map[[3]int]*raster.Planar{}, dec: jp2k.NewDecoder()}
	for _, it := range items {
		path := filepath.Join(dir, it.name+".j2k")
		if err := os.WriteFile(path, it.cs, 0o644); err != nil {
			e.close()
			return nil, err
		}
		f, err := os.Open(path)
		if err != nil {
			e.close()
			return nil, err
		}
		img := &servedImage{it: it, id: it.name, file: f, counter: &countingReaderAt{r: f}}
		img.src = t2.NewSource(img.counter, int64(len(it.cs)))
		e.imgs = append(e.imgs, img)
		si, err := e.store.AddSource(img.id, img.src)
		if err != nil {
			e.close()
			return nil, err
		}
		img.params = si.Params()
	}
	e.srv = serve.New(e.store, serve.Options{CacheBytes: cacheBytes})
	e.ts = httptest.NewServer(e.srv)
	for i := 0; i < P; i++ {
		e.clients = append(e.clients, newClient())
	}
	for _, img := range e.imgs {
		status, _, _, err := e.clients[0].get(e.ts.URL + "/img/" + img.id + "/info")
		if err != nil || status != http.StatusOK {
			e.close()
			return nil, fmt.Errorf("bench: /info of %s: status %d, %v", img.id, status, err)
		}
	}
	return e, nil
}

// close stops the server and removes the corpus files. It waits for every
// connection and worker to end.
func (e *serveEnv) close() {
	for _, c := range e.clients {
		c.hc.CloseIdleConnections()
	}
	if e.ts != nil {
		e.ts.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	e.store.Close()
	for _, img := range e.imgs {
		img.file.Close()
	}
	e.dec.Close()
	os.RemoveAll(e.dir)
}

// stats reads the server's /stats.
func (e *serveEnv) stats() (serverStats, error) { return fetchStats(e.clients[0].hc, e.ts.URL) }

// respRec is what a client kept of one response.
type respRec struct {
	req    *request
	status int
	crc    uint32
	n      int
	ms     float64 // send (or due time, open loop) to last body byte
	lateMs float64 // how late the request was sent
	failed bool    // transport error
}

// fetch sends q on client c and records the response.
func (e *serveEnv) fetch(c *client, q *request) respRec {
	status, body, dt, err := c.get(e.ts.URL + q.path)
	rec := respRec{req: q, status: status, n: len(body), ms: float64(dt) / 1e6, failed: err != nil}
	if err == nil {
		rec.crc = crc32.Checksum(body, castagnoli)
	}
	return rec
}

// servePhase is what one timed phase of a serve workload produced.
type servePhase struct {
	recs     []respRec
	cycleMs  []float64 // closed loop: wall of each cycle
	cyclePix float64   // closed loop: response pixels of one cycle
	wall     time.Duration
	mallocs  uint64
	heapPeak uint64
	stats    statsDelta
	openLoop bool
	sloMs    float64
}

// ok reports whether the response arrived whole with status 200.
func (r *respRec) ok() bool { return !r.failed && r.status == http.StatusOK }

// within counts the requests answered within the latency limit.
func (p *servePhase) within() int {
	n := 0
	for i := range p.recs {
		if p.recs[i].ok() && p.recs[i].ms <= p.sloMs {
			n++
		}
	}
	return n
}

// goodPixels sums the pixels of the region responses that arrived within the
// latency limit: the goodput of an open loop.
func (p *servePhase) goodPixels() float64 {
	total := 0.0
	for i := range p.recs {
		if r := &p.recs[i]; r.req.kind == kindRegion && r.ok() && r.ms <= p.sloMs {
			total += float64(r.req.pixels())
		}
	}
	return total
}

// latenciesOf returns the request times (ms) of recs.
func latenciesOf(recs []respRec) []float64 {
	out := make([]float64, len(recs))
	for i := range recs {
		out[i] = recs[i].ms
	}
	return out
}

// runCycle sends reqs once through the P clients, closed loop: each client
// sends its next request when the previous response is complete. It appends
// to recs and returns the cycle's wall time.
func (e *serveEnv) runCycle(reqs []request, recs *[]respRec) time.Duration {
	base := len(*recs)
	*recs = append(*recs, make([]respRec, len(reqs))...)
	out := (*recs)[base:]
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			prev := time.Now()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				late := time.Since(prev)
				out[i] = e.fetch(c, &reqs[i])
				out[i].lateMs = float64(late) / 1e6
				prev = time.Now()
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// measureClosed repeats the request list, cycle after cycle, until seconds
// have passed.
func (e *serveEnv) measureClosed(reqs []request, seconds float64) (*servePhase, error) {
	ph := &servePhase{}
	for i := range reqs {
		if reqs[i].kind == kindRegion {
			ph.cyclePix += float64(reqs[i].pixels())
		}
	}
	before, err := e.stats()
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for {
		dt := e.runCycle(reqs, &ph.recs)
		ph.cycleMs = append(ph.cycleMs, float64(dt)/1e6)
		runtime.ReadMemStats(&m1)
		ph.heapPeak = max(ph.heapPeak, m1.HeapInuse)
		if time.Since(start).Seconds() >= seconds {
			break
		}
	}
	ph.wall = time.Since(start)
	ph.mallocs = m1.Mallocs - m0.Mallocs
	after, err := e.stats()
	if err != nil {
		return nil, err
	}
	ph.stats = after.delta(before)
	return ph, nil
}

// measureOpen sends reqs on the schedule due (seconds from the start), open
// loop: a dispatcher releases each request at its due time, whatever the
// state of the earlier ones, to P connections; a request that finds them
// all busy waits, and its time runs from when it was due.
func (e *serveEnv) measureOpen(reqs []request, due []float64, sloMs float64) (*servePhase, error) {
	ph := &servePhase{openLoop: true, sloMs: sloMs, recs: make([]respRec, len(reqs))}
	before, err := e.stats()
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	type job struct {
		i    int
		sent time.Time
	}
	// Sized to the whole schedule, so the dispatcher never blocks on a slow
	// server: an open loop's backlog lives in this queue.
	queue := make(chan job, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for j := range queue {
				dueAt := start.Add(time.Duration(due[j.i] * float64(time.Second)))
				rec := e.fetch(c, &reqs[j.i])
				rec.ms = float64(time.Since(dueAt)) / 1e6
				rec.lateMs = float64(j.sent.Sub(dueAt)) / 1e6
				ph.recs[j.i] = rec
			}
		}(c)
	}
	for i := range reqs {
		if d := time.Until(start.Add(time.Duration(due[i] * float64(time.Second)))); d > 0 {
			time.Sleep(d)
		}
		queue <- job{i, time.Now()}
	}
	close(queue)
	wg.Wait()
	ph.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	ph.heapPeak = m1.HeapInuse
	ph.mallocs = m1.Mallocs - m0.Mallocs
	after, err := e.stats()
	if err != nil {
		return nil, err
	}
	ph.stats = after.delta(before)
	return ph, nil
}

// reference returns the direct full decode of image img at (reduce, layers),
// decoded once from the resident codestream.
func (e *serveEnv) reference(img, reduce, layers int) (*raster.Planar, error) {
	key := [3]int{img, reduce, layers}
	if pl := e.refs[key]; pl != nil {
		return pl, nil
	}
	pl, err := e.dec.DecodePlanarSource(t2.BytesSource(e.imgs[img].it.cs), jp2k.DecodeOptions{
		DiscardLevels: reduce, MaxLayers: layers, Workers: e.P, VertMode: dwt.VertBlocked,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: reference decode of %s: %w", e.imgs[img].id, err)
	}
	if reduce == 0 && layers == 0 {
		if _, err := checkDecoded(e.imgs[img].it, pl, 0, true); err != nil {
			return nil, fmt.Errorf("bench: reference decode: %w", err)
		}
	}
	e.refs[key] = pl
	return pl, nil
}

// expected returns the bytes the server must answer q with: for a region,
// the crop of the direct full decode in the requested format; for /stream, a
// codestream that decodes to the direct decode of that many layers; for
// /info, a document that names the image's geometry. The last two are judged
// on a fresh fetch of the same URL.
func (e *serveEnv) expected(q *request) ([]byte, error) {
	img := e.imgs[q.img]
	switch q.kind {
	case kindInfo:
		_, body, _, err := e.clients[0].get(e.ts.URL + q.path)
		if err != nil {
			return nil, err
		}
		var info struct {
			ID                   string
			Width, Height, Tiles int
			Layers, Components   int
		}
		if err := json.Unmarshal(body, &info); err != nil {
			return nil, fmt.Errorf("%s: %w", q.path, err)
		}
		ntx, nty := img.params.NumTiles()
		if info.ID != img.id || info.Width != img.params.Width || info.Height != img.params.Height ||
			info.Tiles != ntx*nty || info.Layers != img.params.Layers || info.Components != img.params.Components() {
			return nil, fmt.Errorf("%s: wrong geometry %+v", q.path, info)
		}
		return bytes.Clone(body), nil
	case kindStream:
		_, body, _, err := e.clients[0].get(e.ts.URL + q.path)
		if err != nil {
			return nil, err
		}
		body = bytes.Clone(body)
		got, err := e.dec.DecodePlanarSource(t2.BytesSource(body), jp2k.DecodeOptions{Workers: e.P, VertMode: dwt.VertBlocked})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.path, err)
		}
		want, err := e.reference(q.img, 0, min(q.layers, img.params.Layers))
		if err != nil {
			return nil, err
		}
		if !raster.PlanarEqual(got, want) {
			return nil, fmt.Errorf("%s: does not decode to the first %d layers", q.path, q.layers)
		}
		return body, nil
	}
	layers := q.layers
	if layers >= img.params.Layers {
		layers = 0
	}
	ref, err := e.reference(q.img, q.reduce, layers)
	if err != nil {
		return nil, err
	}
	win := raster.NewPlanar(q.x1-q.x0, q.y1-q.y0, ref.NComp())
	for ci, c := range ref.Comps {
		for y := q.y0; y < q.y1; y++ {
			copy(win.Comps[ci].Row(y-q.y0), c.Row(y)[q.x0:q.x1])
		}
	}
	win.ClampTo8()
	var buf bytes.Buffer
	switch {
	case q.raw:
		for _, c := range win.Comps {
			for _, v := range c.Pix {
				buf.WriteByte(byte(v))
			}
		}
	case ref.NComp() == 3:
		err = raster.WritePPM(&buf, win, 255)
	default:
		err = raster.WritePGM(&buf, win.Comps[0], 255)
	}
	return buf.Bytes(), err
}

// verify judges every recorded response against the oracle and returns the
// number that failed. Each distinct URL is worked out once.
func (e *serveEnv) verify(recs []respRec) int {
	type want struct {
		crc uint32
		n   int
		err error
	}
	wants := map[string]want{}
	failed := 0
	for i := range recs {
		r := &recs[i]
		if !r.ok() {
			failed++
			e.fails.add("%s: status %d, transport failure %v", r.req.path, r.status, r.failed)
			continue
		}
		w, ok := wants[r.req.path]
		if !ok {
			body, err := e.expected(r.req)
			w = want{crc32.Checksum(body, castagnoli), len(body), err}
			wants[r.req.path] = w
			if err != nil {
				e.fails.add("oracle: %v", err)
			}
		}
		if w.err != nil || r.crc != w.crc || r.n != w.n {
			failed++
			if w.err == nil {
				e.fails.add("%s: %d bytes crc %08x, want %d bytes crc %08x", r.req.path, r.n, r.crc, w.n, w.crc)
			}
		}
	}
	return failed
}

// tilesOf lists the tiles (tx, ty) a region request touches.
func (e *serveEnv) tilesOf(q *request) [][2]int {
	colW, rowH := jp2k.TileGrid(e.imgs[q.img].params, q.reduce)
	var out [][2]int
	for ty := 0; ty+1 < len(rowH); ty++ {
		if rowH[ty+1] <= q.y0 || rowH[ty] >= q.y1 {
			continue
		}
		for tx := 0; tx+1 < len(colW); tx++ {
			if colW[tx+1] <= q.x0 || colW[tx] >= q.x1 {
				continue
			}
			out = append(out, [2]int{tx, ty})
		}
	}
	return out
}

// tracedPass sends reqs once, one at a time on one connection; counts taken
// around it repeat exactly, whatever the host's speed. Half the requests, picked
// by a hash of their position so that no period of the generators lines up
// with the choice, are traced: a root span around the HTTP round
// trip and, right after the response, a replay of the work the server did for
// it — one tile decode per tile the request missed in the cache (the server's
// tile-decode counter, read before and after, says how many) and the response
// encoding. One connection keeps that counter exact and the round trip free of
// queueing behind another request. The other half is sent plain, so
// the two halves see the same cache and the same stretch of time: the ratio of
// their median times is the tracing overhead.
func (e *serveEnv) tracedPass(tr *tracer, rep *replayer, reqs []request, probe bool) (traced, plain []respRec) {
	c := e.clients[0]
	for i := range reqs {
		q := &reqs[i]
		if uint32(i)*2654435761>>31 == 1 && !probe {
			plain = append(plain, e.fetch(c, q))
			continue
		}
		op := tr.newOp()
		root := tr.begin(-1, op, "op.request")
		before := e.srv.TileDecodes()
		call := tr.begin(root, op, [...]string{"http.region", "http.info", "http.stream"}[q.kind])
		rec := e.fetch(c, q)
		missed := int(e.srv.TileDecodes() - before)
		tr.end(call, func(s *span) { s.Bytes, s.N, s.Reduce = int64(rec.n), int64(missed), q.reduce })
		tr.annotate(root, func(s *span) { s.Probe = probe })
		rp := tr.begin(root, op, "replay")
		if q.kind == kindRegion {
			tiles := e.tilesOf(q)
			for _, t := range tiles[:min(missed, len(tiles))] {
				if err := rep.tileDecode(rp, op, e.imgs[q.img], t[0], t[1], q.reduce, q.layers); err != nil {
					e.fails.add("replay of %s: %v", q.path, err)
				}
			}
			if !q.raw {
				rep.pnmWrite(rp, op, q.x1-q.x0, q.y1-q.y0, e.imgs[q.img].params.Components())
			}
		}
		tr.end(rp, nil)
		tr.end(root, nil)
		traced = append(traced, rec)
	}
	return traced, plain
}
