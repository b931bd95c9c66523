package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"

	"pj2k/internal/core"
	"pj2k/internal/dwt"
	"pj2k/internal/jp2k"
	"pj2k/internal/mq"
	"pj2k/internal/raster"
	"pj2k/internal/serve"
	"pj2k/internal/t2"
)

// Probes are operations the harness adds to a traced run to time the public
// function of a layer directly, on the workload's own data where the layer
// takes data. Each is one operation with a root span "op.probe" and one child
// span per call timed; every per-layer time comes out of such a span or out
// of the replay of one of the workload's own operations.

// probeOp opens a probe operation and returns its id and root span.
func probeOp(tr *tracer) (op, root int) {
	op = tr.newOp()
	root = tr.begin(-1, op, "op.probe")
	tr.annotate(root, func(s *span) { s.Probe = true })
	return op, root
}

// probeMQ codes a seeded stream of binary decisions over 19 contexts — the
// number tier-1 uses — each context with its own skew, then decodes it back.
func probeMQ(tr *tracer, rng *rand.Rand, n int) error {
	const nctx = 19
	var skew [nctx]float64
	for i := range skew {
		skew[i] = 0.02 + 0.46*rng.Float64()
	}
	syms, ctxs := make([]uint8, n), make([]uint8, n)
	for i := range syms {
		c := rng.IntN(nctx)
		ctxs[i] = uint8(c)
		if rng.Float64() < skew[c] {
			syms[i] = 1
		}
	}
	op, root := probeOp(tr)
	defer tr.end(root, nil)
	var cx [nctx]mq.Context
	enc := mq.NewEncoder()
	id := tr.begin(root, op, "mq.enc")
	for i, s := range syms {
		enc.Encode(int(s), &cx[ctxs[i]])
	}
	data := enc.Flush()
	tr.end(id, func(s *span) { s.N, s.Bytes = int64(n), int64(len(data)) })

	cx = [nctx]mq.Context{}
	dec := mq.NewDecoder(data)
	bad := 0
	id = tr.begin(root, op, "mq.dec")
	for i, s := range syms {
		if dec.Decode(&cx[ctxs[i]]) != int(s) {
			bad++
		}
	}
	tr.end(id, func(s *span) { s.N = int64(n) })
	if bad > 0 {
		return fmt.Errorf("mq: %d of %d symbols decoded wrong", bad, n)
	}
	return nil
}

// probeDispatch times an empty dispatch barrier on a pool of P workers.
func probeDispatch(tr *tracer, P, n int) {
	pool := core.NewPool(P)
	defer pool.Close()
	nop := func(worker, lo, hi int) {}
	pool.ForID(P, nop) // starts the workers
	op, root := probeOp(tr)
	id := tr.begin(root, op, "core.dispatch")
	for i := 0; i < n; i++ {
		pool.ForID(P, nop)
	}
	tr.end(id, func(s *span) { s.N = int64(n) })
	tr.end(root, nil)
}

// probeCache times the tile cache alone: lookups that hit, and lookups that
// miss into a stub decode on a cache that evicts on every insert.
func probeCache(tr *tracer, T, hits, misses int) error {
	tile := raster.NewPlanar(T, T, 1)
	stub := func() (*raster.Planar, error) { return tile, nil }
	ctx := context.Background()
	keys := make([]serve.TileKey, 64)
	hot := serve.NewCache(1 << 30)
	for i := range keys {
		keys[i] = serve.TileKey{Image: "probe", TX: i % 8, TY: i / 8}
		if _, _, err := hot.GetOrDecode(ctx, keys[i], stub); err != nil {
			return err
		}
	}
	op, root := probeOp(tr)
	defer tr.end(root, nil)
	id := tr.begin(root, op, "serve.cache.hit")
	for i := 0; i < hits; i++ {
		if _, co, _ := hot.GetOrDecode(ctx, keys[i&63], stub); co != serve.OutcomeHit {
			tr.end(id, nil)
			return fmt.Errorf("serve.Cache: lookup of a resident key was a %v", co)
		}
	}
	tr.end(id, func(s *span) { s.N = int64(hits) })

	cold := serve.NewCache(int64(16 * (T*T*4 + 160)))
	id = tr.begin(root, op, "serve.cache.miss")
	for i := 0; i < misses; i++ {
		if _, co, _ := cold.GetOrDecode(ctx, serve.TileKey{Image: "probe", TX: i}, stub); co != serve.OutcomeMiss {
			tr.end(id, nil)
			return fmt.Errorf("serve.Cache: lookup of a new key was a %v", co)
		}
	}
	tr.end(id, func(s *span) { s.N = int64(misses) })
	if ev := cold.Stats().Evictions; ev != int64(misses-16) {
		return fmt.Errorf("serve.Cache: %d evictions after %d inserts into 16 slots", ev, misses)
	}
	return nil
}

// probeContainer times the container layer on one tiled codestream read
// through a counting reader: the header-and-chain scan, index construction,
// the first touch of every tile's packet map, and a one-layer prefix.
func probeContainer(tr *tracer, cs []byte) error {
	counter := &countingReaderAt{r: bytes.NewReader(cs)}
	src := t2.NewSource(counter, int64(len(cs)))
	op, root := probeOp(tr)
	defer tr.end(root, nil)

	io0 := counter.snap()
	id := tr.begin(root, op, "t2.scan")
	_, spans, err := t2.ScanCodestream(src)
	d := counter.snap().sub(io0)
	tr.end(id, func(s *span) { s.N, s.Reads, s.Bytes = int64(len(spans)), d.reads, d.bytes })
	if err != nil {
		return err
	}
	id = tr.begin(root, op, "t2.ingest")
	ix, err := t2.NewIndex(src)
	tr.end(id, nil)
	if err != nil {
		return err
	}
	id = tr.begin(root, op, "t2.index_tile")
	for ti := 0; ti < ix.NumTiles(); ti++ {
		if _, err := ix.Tile(ti); err != nil {
			tr.end(id, nil)
			return err
		}
	}
	tr.end(id, func(s *span) { s.N = int64(ix.NumTiles()) })
	id = tr.begin(root, op, "t2.prefix")
	n, err := ix.WritePrefix(io.Discard, 1)
	tr.end(id, func(s *span) { s.Bytes = n })
	return err
}

// probeVertical runs the forward 5/3 transform of one plane with the naive
// and with the blocked vertical filter (the paper's Figs. 7 and 8).
func probeVertical(tr *tracer, im *raster.Image) {
	op, root := probeOp(tr)
	for _, m := range []struct {
		name string
		mode dwt.VertMode
	}{{"dwt.vert.naive", dwt.VertNaive}, {"dwt.vert.blocked", dwt.VertBlocked}} {
		work := im.Clone()
		id := tr.begin(root, op, m.name)
		tm := dwt.Forward53Timed(work, 5, dwt.Strategy{VertMode: m.mode, Workers: 1, Scratch: dwt.NewScratch(1)})
		tr.end(id, func(s *span) { s.VertNS, s.HorizNS = int64(tm.Vertical), int64(tm.Horizontal) })
	}
	tr.end(root, nil)
}

// probeTiles replays n single-tile decodes of img at full resolution and n
// at reduce=2, through the image's counting reader.
func probeTiles(tr *tracer, rep *replayer, img *servedImage, n int) error {
	ntx, nty := img.params.NumTiles()
	op, root := probeOp(tr)
	defer tr.end(root, nil)
	for _, reduce := range []int{0, 2} {
		for i := 0; i < min(n, ntx*nty); i++ {
			ti := i * (ntx*nty - 1) / max(min(n, ntx*nty)-1, 1) // spread over the grid
			if err := rep.tileDecode(root, op, img, ti%ntx, ti/ntx, reduce, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeRequests is the request list the harness adds to every traced run:
// per image one /info and one /stream?layers=1, then single-tile requests at
// the first layer only — a variant none of the workloads' own requests
// cache — at full resolution and at reduce=2.
func probeRequests(imgs []*servedImage, n int) []request {
	var out []request
	add := func(q request) {
		q.finish()
		out = append(out, q)
	}
	for i, img := range imgs {
		add(request{kind: kindInfo, img: i, id: img.id})
		add(request{kind: kindStream, img: i, id: img.id, layers: 1})
		ntx, nty := img.params.NumTiles()
		for _, reduce := range []int{0, 2} {
			colW, rowH := jp2k.TileGrid(img.params, reduce)
			for k := 0; k < min(n, ntx*nty); k++ {
				tx, ty := k%ntx, k/ntx%nty
				add(request{img: i, id: img.id, reduce: reduce, layers: 1,
					x0: colW[tx], y0: rowH[ty], x1: colW[tx+1], y1: rowH[ty+1]})
			}
		}
	}
	return out
}
