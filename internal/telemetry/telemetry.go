// Package telemetry is the dependency-free instrumentation core of the
// serving stack: sharded atomic counters, gauges and fixed-bucket latency
// histograms, collected in a Registry that snapshots to JSON-friendly
// structures and emits the Prometheus text exposition format directly.
//
// Everything on the recording path — Counter.Add, Gauge.Set,
// Histogram.Observe — is allocation-free and lock-free, so the codec pipeline
// and the HTTP serving layer can record per-stage durations and per-request
// outcomes at full load without perturbing the numbers they measure
// (TestHotPathAllocs pins the zero-allocation property).
package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
	"unsafe"
)

// counterShards is the shard count of a Counter; a power of two so the shard
// pick is a mask. Eight shards flatten the cache-line ping-pong of a hot
// counter shared by that many cores without bloating idle counters.
const counterShards = 8

// shardPad pads each shard to its own 64-byte cache line so concurrent writers
// do not false-share. The stride stays at one line, not the 128 bytes
// (core.CacheLinePad) per-worker codec state gets: a counter moves once per
// request or per encode, not once per coded symbol, so the adjacent-line
// prefetcher pairing two shards costs nothing measurable, while doubling the
// stride would double every counter to 1 KiB (DESIGN.md §7).
type shardPad struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing sharded counter. The zero value is
// ready to use.
type Counter struct {
	shards [counterShards]shardPad
}

// shardIndex picks a shard from the goroutine's stack address: goroutines
// live on distinct stacks, so concurrent writers spread across shards with no
// per-goroutine state and no allocation. The low bits inside a frame are
// noise; bits above the frame size discriminate stacks.
func shardIndex() int {
	var probe byte
	return int(uintptr(unsafe.Pointer(&probe))>>10) & (counterShards - 1)
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	c.shards[shardIndex()].v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the counter's current total.
func (c *Counter) Value() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Gauge is a settable instantaneous value. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by n (useful for in-flight style gauges).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the gauge's current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram buckets: log-spaced, base 2, anchored at 1µs. Bucket i counts
// observations in (1µs·2^(i-1), 1µs·2^i]; the first bucket catches everything
// up to 1µs and the last is the +Inf overflow. 28 finite buckets reach ~134s,
// past any request deadline worth histogramming.
const (
	histBuckets   = 28
	histFirstNano = 1000 // 1µs
)

// BucketBound returns the inclusive upper bound of finite bucket i in
// nanoseconds.
func BucketBound(i int) int64 { return histFirstNano << uint(i) }

// Histogram is a fixed-bucket latency histogram. Observations are durations;
// buckets are log-spaced so one histogram spans microsecond DWT stages and
// multi-second whole-image decodes with bounded relative error (each bucket
// is 2x the previous, so a derived percentile is within 2x — and after the
// within-bucket interpolation usually much closer). The zero value is ready
// to use.
type Histogram struct {
	counts [histBuckets + 1]atomic.Uint64
	sum    atomic.Int64 // total observed nanoseconds
}

// bucketFor returns the index of the bucket owning an observation of ns
// nanoseconds: the smallest i with ns <= 1µs·2^i, or the overflow bucket.
func bucketFor(ns int64) int {
	if ns <= histFirstNano {
		return 0
	}
	// Ceil to whole microsecond-multiples of the first bound, then the bucket
	// is the number of doublings needed to cover it.
	x := uint64((ns + histFirstNano - 1) / histFirstNano)
	i := bits.Len64(x - 1)
	if i > histBuckets {
		return histBuckets
	}
	return i
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketFor(ns)].Add(1)
	h.sum.Add(ns)
}

// HistogramSnapshot is a point-in-time copy of a histogram: cumulative bucket
// counts (Prometheus semantics: Cumulative[i] counts observations <= the
// bucket bound, the last entry is the total), the total count and the summed
// nanoseconds.
type HistogramSnapshot struct {
	Cumulative [histBuckets + 1]uint64
	Count      uint64
	SumNanos   int64
}

// Snapshot copies the histogram's current state. Concurrent Observe calls may
// land between bucket reads; the snapshot is still a valid histogram (each
// bucket is internally consistent), which is all percentile derivation needs.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Cumulative[i] = cum
	}
	s.Count = cum
	s.SumNanos = h.sum.Load()
	return s
}

// Quantile derives the q-quantile (0 <= q <= 1) from the snapshot as a
// duration, interpolating linearly within the owning bucket (Prometheus's
// histogram_quantile rule). It returns 0 for an empty histogram; quantiles
// landing in the overflow bucket return the largest finite bound.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	for i, cum := range s.Cumulative {
		if float64(cum) < rank {
			continue
		}
		if i >= histBuckets {
			return time.Duration(BucketBound(histBuckets - 1))
		}
		lo := int64(0)
		if i > 0 {
			lo = BucketBound(i - 1)
		}
		hi := BucketBound(i)
		prev := uint64(0)
		if i > 0 {
			prev = s.Cumulative[i-1]
		}
		inBucket := float64(cum - prev)
		if inBucket == 0 {
			return time.Duration(hi)
		}
		frac := (rank - float64(prev)) / inBucket
		return time.Duration(float64(lo) + frac*float64(hi-lo))
	}
	return time.Duration(BucketBound(histBuckets - 1))
}

// Mean returns the snapshot's mean observation.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / int64(s.Count))
}
