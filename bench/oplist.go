package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// reqKind is the endpoint a request hits.
type reqKind uint8

const (
	kindRegion reqKind = iota
	kindInfo
	kindStream
)

// request is one generated HTTP request. Coordinates address the reduced
// grid of the image at reduce, as the server's API does.
type request struct {
	kind           reqKind
	img            int    // index into the server's images (0 BIG, 1 COL)
	id             string // the image's id on the server
	reduce, layers int    // layers 0 = all
	x0, y0, x1, y1 int
	raw            bool
	scan           bool // a full-image request
	path           string
}

func (q *request) pixels() int { return (q.x1 - q.x0) * (q.y1 - q.y0) }

var imageIDs = [2]string{"BIG", "COL"}

// finish fills in the request's image id (from imageIDs, unless the
// generator set one) and its URL path.
func (q *request) finish() {
	if q.id == "" {
		q.id = imageIDs[q.img]
	}
	id := q.id
	switch q.kind {
	case kindInfo:
		q.path = "/img/" + id + "/info"
	case kindStream:
		q.path = fmt.Sprintf("/img/%s/stream?layers=%d", id, q.layers)
	default:
		q.path = fmt.Sprintf("/img/%s?x0=%d&y0=%d&x1=%d&y1=%d&reduce=%d", id, q.x0, q.y0, q.x1, q.y1, q.reduce)
		if q.layers > 0 {
			q.path += fmt.Sprintf("&layers=%d", q.layers)
		}
		if q.raw {
			q.path += "&format=raw"
		}
	}
}

// edge returns the edge of image img at reduce (both images are square, and
// their edges are multiples of 2^reduce for every reduce the workloads use).
func (g geometry) edge(img, reduce int) int {
	n := 16 * g.T
	if img == 1 {
		n = 8 * g.T
	}
	return n >> uint(reduce)
}

// unaligned draws a window origin in [1, limit) that is not a multiple of
// the reduced tile edge, so the window straddles tile boundaries.
func unaligned(rng *rand.Rand, limit, tile int) int {
	v := 1 + rng.IntN(limit-1)
	if v%tile == 0 {
		v--
	}
	return v
}

// stratify returns n class labels in which class c appears round(n*share[c])
// times (largest remainders first, so the counts add up to n), shuffled. The
// mix of every generated list is therefore the same on every seed; only the
// order and the positions differ.
func stratify(rng *rand.Rand, n int, share []float64) []int {
	counts := make([]int, len(share))
	type rem struct {
		c int
		f float64
	}
	var rems []rem
	left := n
	for c, s := range share {
		exact := s * float64(n)
		counts[c] = int(exact)
		left -= counts[c]
		rems = append(rems, rem{c, exact - float64(counts[c])})
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].f > rems[j].f })
	for i := 0; i < left; i++ {
		counts[rems[i%len(rems)].c]++
	}
	out := make([]int, 0, n)
	for c, k := range counts {
		for i := 0; i < k; i++ {
			out = append(out, c)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// coldRequests is one cycle of serve-cold: 70 % unaligned T x T windows at
// full resolution (4 tiles), 20 % T x T windows at reduce=2 (16 to 25 small
// tiles), 10 % T x T windows at the first layer only; one request in ten, of
// any class, asks for raw samples. The images alternate.
func coldRequests(rng *rand.Rand, g geometry, n int) []request {
	classes := stratify(rng, n, []float64{0.7, 0.2, 0.1})
	out := make([]request, n)
	for i, c := range classes {
		q := request{img: i % 2, raw: i%10 == 7}
		switch c {
		case 1:
			q.reduce = 2
		case 2:
			q.layers = 1
		}
		edge, tile := g.edge(q.img, q.reduce), g.T>>uint(q.reduce)
		q.x0, q.y0 = unaligned(rng, edge-g.T, tile), unaligned(rng, edge-g.T, tile)
		q.x1, q.y1 = q.x0+g.T, q.y0+g.T
		q.finish()
		out[i] = q
	}
	return out
}

// warmRequests is one cycle of serve-warm: a viewer panning an 8T x 6T
// viewport over BIG at full resolution and, every fourth request, a 4T x 3T
// viewport over COL at reduce=1. Each viewport moves by at most one tile
// from the previous one on the same image.
func warmRequests(rng *rand.Rand, g geometry, n int) []request {
	type walk struct{ x, y, w, h, edge int }
	walks := [2]walk{
		{w: 8 * g.T, h: 6 * g.T, edge: g.edge(0, 0)},
		{w: 4 * g.T, h: 3 * g.T, edge: g.edge(1, 1)},
	}
	for i := range walks {
		wk := &walks[i]
		wk.x, wk.y = rng.IntN(wk.edge-wk.w+1), rng.IntN(wk.edge-wk.h+1)
	}
	step := func(v, limit int) int {
		v += rng.IntN(2*g.T+1) - g.T
		if v < 0 {
			v = -v
		}
		if v > limit {
			v = 2*limit - v
		}
		return min(max(v, 0), limit)
	}
	out := make([]request, n)
	for i := range out {
		img := 0
		if i%4 == 3 {
			img = 1
		}
		wk := &walks[img]
		wk.x, wk.y = step(wk.x, wk.edge-wk.w), step(wk.y, wk.edge-wk.h)
		q := request{img: img, reduce: img, x0: wk.x, y0: wk.y, x1: wk.x + wk.w, y1: wk.y + wk.h}
		q.finish()
		out[i] = q
	}
	return out
}

// warmArea is the pre-warm of serve-warm: every tile a viewport can touch,
// fetched as four quadrants per image.
func warmArea(g geometry) []request {
	var out []request
	for img := 0; img < 2; img++ {
		edge := g.edge(img, img)
		half := edge / 2
		for _, o := range [][2]int{{0, 0}, {half, 0}, {0, half}, {half, half}} {
			q := request{img: img, reduce: img, x0: o[0], y0: o[1], x1: o[0] + half, y1: o[1] + half}
			q.finish()
			out = append(out, q)
		}
	}
	return out
}

// Mix of serve-zipf (shares of the requests sent).
const (
	zipfExponent    = 1.1
	zipfShareStream = 0.03
	zipfShareInfo   = 0.02
	zipfShareScan   = 0.01
)

// zipfRequests generates the n requests of serve-zipf: region requests on
// tile-aligned 2T x 2T anchors of both images at reduce 0/1/2 (60/25/15 %),
// the anchor of each drawn from a Zipf(1.1) popularity over the anchors at
// that reduce, plus /stream?layers=1, /info and full-image scans at
// reduce=3. Both the class mix and the popularity ranks are stratified: the
// multiset of (class, rank) pairs is the same on every seed, the seed picks
// which anchor holds which rank and the order of the requests.
func zipfRequests(rng *rand.Rand, g geometry, n int) []request {
	region := 1 - zipfShareStream - zipfShareInfo - zipfShareScan
	classes := stratify(rng, n, []float64{
		region * 0.60, region * 0.25, region * 0.15, zipfShareStream, zipfShareInfo, zipfShareScan,
	})
	spreadOut(rng, classes, 5)
	// Anchors per reduce; position = popularity rank. The seed shuffles the
	// anchors of each image, then the two images interleave in a fixed
	// pattern (four of BIG's anchors, one of COL's — their numbers' ratio), so
	// the decoded size at every rank, and with it the pressure on the cache,
	// is the same on every seed.
	type anchor struct{ img, x, y int }
	var anchors [3][]anchor
	for r := 0; r < 3; r++ {
		var per [2][]anchor
		for img := 0; img < 2; img++ {
			edge := g.edge(img, r)
			for y := 0; y+2*g.T <= edge; y += 2 * g.T {
				for x := 0; x+2*g.T <= edge; x += 2 * g.T {
					per[img] = append(per[img], anchor{img, x, y})
				}
			}
			a := per[img]
			rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		}
		for len(per[0])+len(per[1]) > 0 {
			k := min(4, len(per[0]))
			anchors[r] = append(anchors[r], per[0][:k]...)
			per[0] = per[0][k:]
			if len(per[1]) > 0 {
				anchors[r] = append(anchors[r], per[1][0])
				per[1] = per[1][1:]
			}
		}
	}
	var perClass [3]int
	for _, c := range classes {
		if c < 3 {
			perClass[c]++
		}
	}
	var ranks [3][]int
	for r := 0; r < 3; r++ {
		share := make([]float64, len(anchors[r]))
		total := 0.0
		for k := range share {
			share[k] = 1 / math.Pow(float64(k+1), zipfExponent)
			total += share[k]
		}
		for k := range share {
			share[k] /= total
		}
		ranks[r] = stratify(rng, perClass[r], share)
	}
	out := make([]request, n)
	others := 0
	for i, c := range classes {
		var q request
		switch c {
		case 0, 1, 2:
			a := anchors[c][ranks[c][0]]
			ranks[c] = ranks[c][1:]
			q = request{img: a.img, reduce: c, x0: a.x, y0: a.y, x1: a.x + 2*g.T, y1: a.y + 2*g.T}
		case 3:
			q = request{kind: kindStream, img: others % 2, layers: 1}
			others++
		case 4:
			q = request{kind: kindInfo, img: others % 2}
			others++
		case 5:
			img := others % 2
			others++
			edge := g.edge(img, 3)
			q = request{img: img, reduce: 3, x1: edge, y1: edge, scan: true}
		}
		q.finish()
		out[i] = q
	}
	return out
}

// spreadOut moves the entries of class c to evenly spaced positions, each
// jittered by up to a quarter of the spacing. A scan holds a connection for
// the time of dozens of ordinary requests; where the few scans of a run fall
// relative to each other decides the tail latency, and left to a shuffle it
// would differ more between seeds than between versions of the program.
func spreadOut(rng *rand.Rand, classes []int, c int) {
	var rest []int
	m := 0
	for _, v := range classes {
		if v == c {
			m++
		} else {
			rest = append(rest, v)
		}
	}
	if m == 0 {
		return
	}
	gap := float64(len(classes)) / float64(m)
	out := classes[:0]
	next := 0
	for k := 0; k < m; k++ {
		at := int((float64(k) + 0.5 + (rng.Float64()-0.5)/2) * gap)
		for len(out) < at && next < len(rest) {
			out = append(out, rest[next])
			next++
		}
		out = append(out, c)
	}
	copy(classes[len(out):], rest[next:])
}

// poissonSchedule returns arrival times (seconds from the start) of a Poisson
// process of the given rate, up to horizon.
func poissonSchedule(rng *rand.Rand, rate, horizon float64) []float64 {
	var out []float64
	for t := rng.ExpFloat64() / rate; t < horizon; t += rng.ExpFloat64() / rate {
		out = append(out, t)
	}
	return out
}

// hashRequests folds a request list into one number, for the determinism
// tests and the result file.
func hashRequests(reqs []request) uint64 {
	h := uint64(14695981039346656037)
	for _, q := range reqs {
		for _, c := range []byte(q.path) {
			h = (h ^ uint64(c)) * 1099511628211
		}
		h = (h ^ 0xff) * 1099511628211
	}
	return h
}
