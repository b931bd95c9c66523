package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync/atomic"

	"pj2k/internal/raster"
	"pj2k/internal/serve"
	"pj2k/internal/telemetry"
)

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the p-quantile of xs by linear interpolation between
// closest ranks (0 for none) without reordering xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countingReaderAt counts the positioned reads and bytes that pass through
// it; the served corpus is registered behind one, so the benchmark sees the
// IO each layer issues without touching the layers.
type countingReaderAt struct {
	r     io.ReaderAt
	reads atomic.Int64
	bytes atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.reads.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

// ioCount is a snapshot of a countingReaderAt.
type ioCount struct{ reads, bytes int64 }

func (c *countingReaderAt) snap() ioCount {
	return ioCount{c.reads.Load(), c.bytes.Load()}
}

func (a ioCount) sub(b ioCount) ioCount { return ioCount{a.reads - b.reads, a.bytes - b.bytes} }

// serverStats is the part of the server's /stats payload the benchmark reads.
type serverStats struct {
	Requests    int64            `json:"requests"`
	Errors      int64            `json:"errors"`
	TileDecodes int64            `json:"tile_decodes"`
	Shed        int64            `json:"shed"`
	Cache       serve.CacheStats `json:"cache"`
	IO          struct {
		ReadAttempts int64 `json:"read_attempts"`
	} `json:"io"`
	Pool struct {
		DispatchWaitMS float64 `json:"dispatch_wait_ms"`
	} `json:"pool"`
	DecodeStages map[string]telemetry.LatencySummary `json:"decode_stage_latency"`
}

// fetchStats reads /stats from the server at base.
func fetchStats(hc *http.Client, base string) (serverStats, error) {
	var st serverStats
	resp, err := hc.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("bench: /stats returned %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("bench: decoding /stats: %w", err)
	}
	return st, nil
}

// statsDelta is what the server did between two /stats snapshots.
type statsDelta struct {
	Requests, Errors, TileDecodes, Shed int64
	Hits, Misses, Coalesced, Evictions  int64
	IOReads                             int64
	PoolWaitMS                          float64
	CacheEntries                        int
	CacheBytes                          int64
	StageMS                             map[string]float64 // summed stage time
	StageCount                          map[string]uint64
}

// delta returns what happened between before and after. Cache occupancy
// (entries, bytes) is a gauge and is taken from after as is.
func (after serverStats) delta(before serverStats) statsDelta {
	d := statsDelta{
		Requests:     after.Requests - before.Requests,
		Errors:       after.Errors - before.Errors,
		TileDecodes:  after.TileDecodes - before.TileDecodes,
		Shed:         after.Shed - before.Shed,
		Hits:         after.Cache.Hits - before.Cache.Hits,
		Misses:       after.Cache.Misses - before.Cache.Misses,
		Coalesced:    after.Cache.Coalesced - before.Cache.Coalesced,
		Evictions:    after.Cache.Evictions - before.Cache.Evictions,
		IOReads:      after.IO.ReadAttempts - before.IO.ReadAttempts,
		PoolWaitMS:   after.Pool.DispatchWaitMS - before.Pool.DispatchWaitMS,
		CacheEntries: after.Cache.Entries,
		CacheBytes:   after.Cache.Bytes,
		StageMS:      map[string]float64{},
		StageCount:   map[string]uint64{},
	}
	for name, a := range after.DecodeStages {
		b := before.DecodeStages[name]
		d.StageMS[name] = a.MeanMS*float64(a.Count) - b.MeanMS*float64(b.Count)
		d.StageCount[name] = a.Count - b.Count
	}
	return d
}

// hashPlanar folds every sample of pl into a 64-bit FNV-1a style hash, word
// at a time; used to compare decoded images without keeping them.
func hashPlanar(pl *raster.Planar) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range pl.Comps {
		for y := 0; y < c.Height; y++ {
			for _, v := range c.Row(y) {
				h = (h ^ uint64(uint32(v))) * 1099511628211
			}
		}
	}
	return h
}
