package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pj2k/internal/serve"
	"pj2k/internal/telemetry"
)

// exactMetrics are the per-layer counts that two traced runs on one seed must
// reproduce to the last digit.
var exactMetrics = map[string][]string{
	"encode-batch": {"t1.enc_blocks", "t1.enc_passes", "t1.enc_bytes", "t1.dec_blocks", "rate.blocks", "out_bytes",
		"t2.scan_reads", "t2.scan_bytes", "t2.src_reads_per_tile", "t2.src_bytes_per_tile", "t2.src_bytes_per_tile.reduce2"},
	"serve-cold": {"t1.enc_blocks", "t2.scan_reads", "t2.scan_bytes", "t2.src_bytes_per_tile",
		"serve.tile_decodes_per_req", "serve.io_reads_per_req", "out_bytes"},
	"serve-warm": {"serve.tile_decodes_per_req", "serve.cache.hit_ratio", "t2.scan_reads"},
}

func TestSameSeedSameCounts(t *testing.T) {
	for w, names := range exactMetrics {
		a, b := runSmoke(t, w, 1, true, 0).res, runSmoke(t, w, 1, true, 1).res
		if a.OpsHash != b.OpsHash {
			t.Errorf("%s: operation lists of two runs on seed 1 hash to %s and %s", w, a.OpsHash, b.OpsHash)
		}
		for _, n := range names {
			if a.Metrics[n].Value != b.Metrics[n].Value {
				t.Errorf("%s: %s = %v then %v on the same seed", w, n, a.Metrics[n].Value, b.Metrics[n].Value)
			}
		}
	}
}

func TestOtherSeedOtherOps(t *testing.T) {
	for _, w := range workloadDefs {
		a, b := runSmoke(t, w.Name, 1, false, 0).res, runSmoke(t, w.Name, 2, false, 0).res
		if a.OpsHash == b.OpsHash {
			t.Errorf("%s: seeds 1 and 2 generate the same operations (%s)", w.Name, a.OpsHash)
		}
	}
}

// TestGeneratorsStratified: the request mix of each serve workload is the
// same on every seed; only positions and order differ.
func TestGeneratorsStratified(t *testing.T) {
	g := smokeGeometry
	type mix struct{ r0, r2, l1, raw, scan, info, stream int }
	count := func(reqs []request) mix {
		var m mix
		for _, q := range reqs {
			switch {
			case q.kind == kindInfo:
				m.info++
			case q.kind == kindStream:
				m.stream++
			case q.scan:
				m.scan++
			case q.reduce == 2:
				m.r2++
			case q.layers == 1:
				m.l1++
			case q.reduce == 0:
				m.r0++
			}
			if q.raw {
				m.raw++
			}
		}
		return m
	}
	c1, c2 := coldRequests(newRand(1, "c"), g, 200), coldRequests(newRand(2, "c"), g, 200)
	if m := count(c1); m != count(c2) || m.r0 != 140 || m.r2 != 40 || m.l1 != 20 || m.raw != 20 {
		t.Errorf("serve-cold mix %+v, %+v", m, count(c2))
	}
	if hashRequests(c1) == hashRequests(c2) || hashRequests(c1) != hashRequests(coldRequests(newRand(1, "c"), g, 200)) {
		t.Error("serve-cold requests do not follow the seed")
	}
	z1, z2 := zipfRequests(newRand(1, "z"), g, 1000), zipfRequests(newRand(2, "z"), g, 1000)
	if m := count(z1); m != count(z2) || m.stream != 30 || m.info != 20 || m.scan != 10 {
		t.Errorf("serve-zipf mix %+v, %+v", m, count(z2))
	}
	// The most popular anchor takes the same share of the requests on any seed.
	top := func(reqs []request) int {
		n := map[string]int{}
		best := 0
		for _, q := range reqs {
			if q.kind == kindRegion && q.reduce == 0 {
				n[q.path]++
				best = max(best, n[q.path])
			}
		}
		return best
	}
	if top(z1) != top(z2) || top(z1) < 50 {
		t.Errorf("most popular anchor drawn %d and %d times", top(z1), top(z2))
	}
	for _, q := range warmRequests(newRand(3, "w"), g, 400) {
		edge := g.edge(q.img, q.reduce)
		if q.x0 < 0 || q.y0 < 0 || q.x1 > edge || q.y1 > edge || q.x1 <= q.x0 {
			t.Fatalf("viewport %+v outside the %d-pixel image", q, edge)
		}
	}
}

func TestCountingReaderAt(t *testing.T) {
	c := &countingReaderAt{r: bytes.NewReader(make([]byte, 100))}
	buf := make([]byte, 30)
	for _, off := range []int64{0, 10, 90} {
		c.ReadAt(buf, off) // the last one is short: 10 bytes and io.EOF
	}
	before := c.snap()
	c.ReadAt(buf[:5], 50)
	if before != (ioCount{3, 70}) || c.snap().sub(before) != (ioCount{1, 5}) {
		t.Errorf("counted %+v then %+v", before, c.snap().sub(before))
	}
}

func TestStatsDelta(t *testing.T) {
	snap := func(decodes, hits int64, entries int, t1Count uint64, t1Mean float64) serverStats {
		var s serverStats
		s.TileDecodes, s.Cache.Hits, s.Cache.Entries = decodes, hits, entries
		s.Pool.DispatchWaitMS = float64(decodes)
		s.DecodeStages = map[string]telemetry.LatencySummary{"t1": {Count: t1Count, MeanMS: t1Mean}}
		return s
	}
	d := snap(10, 7, 4, 10, 3).delta(snap(4, 2, 9, 4, 1.5))
	if d.TileDecodes != 6 || d.Hits != 5 || d.CacheEntries != 4 || d.PoolWaitMS != 6 ||
		d.StageCount["t1"] != 6 || d.StageMS["t1"] != 24 {
		t.Errorf("delta %+v", d)
	}
	// And through HTTP, against what a real server serves.
	srv := serve.New(serve.NewStore(), serve.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	a, err := fetchStats(http.DefaultClient, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fetchStats(http.DefaultClient, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.delta(a).Requests; got != 1 {
		t.Errorf("one /stats request between two snapshots counted as %d", got)
	}
	raw, _ := json.Marshal(a)
	if !bytes.Contains(raw, []byte("tile_decodes")) {
		t.Errorf("snapshot %s", raw)
	}
}
