package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHotPathAllocs pins the zero-allocation property of every recording
// operation: instrumentation threaded through the codec hot paths must cost
// atomic operations only, or the telemetry layer would perturb the numbers it
// reports (and the codec's own steady-state alloc caps).
func TestHotPathAllocs(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Errorf("Counter.Add allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(42) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(1) }); n != 0 {
		t.Errorf("Gauge.Add allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123 * time.Microsecond) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op, want 0", n)
	}
}

func TestCounterConcurrentSum(t *testing.T) {
	var c Counter
	const goroutines, each = 16, 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*each {
		t.Fatalf("counter = %d, want %d", got, goroutines*each)
	}
}

func TestBucketFor(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {999, 0}, {1000, 0}, // first bucket: <= 1µs
		{1001, 1}, {2000, 1}, // second: <= 2µs
		{2001, 2}, {4000, 2},
		{bucketBound(10), 10},
		{bucketBound(10) + 1, 11},
		{1 << 62, histBuckets}, // overflow
	}
	for _, tc := range cases {
		if got := bucketFor(tc.ns); got != tc.want {
			t.Errorf("bucketFor(%d) = %d, want %d", tc.ns, got, tc.want)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations at ~1ms, 10 at ~100ms: p50 must land near 1ms, p99
	// near 100ms (within the 2x bucket resolution).
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.snapshot()
	if s.Count != 110 {
		t.Fatalf("count = %d, want 110", s.Count)
	}
	if p50 := s.quantile(0.5); p50 > 2*time.Millisecond || p50 < 100*time.Microsecond {
		t.Errorf("p50 = %v, want ~1ms", p50)
	}
	if p99 := s.quantile(0.99); p99 > 200*time.Millisecond || p99 < 50*time.Millisecond {
		t.Errorf("p99 = %v, want ~100ms", p99)
	}
	if mean := s.mean(); mean < 5*time.Millisecond || mean > 20*time.Millisecond {
		t.Errorf("mean = %v, want ~10ms", mean)
	}
	// Cumulative counts must be monotone with the total as the last entry.
	prev := uint64(0)
	for i, c := range s.Cumulative {
		if c < prev {
			t.Fatalf("bucket %d: cumulative count %d < previous %d", i, c, prev)
		}
		prev = c
	}
	if s.Cumulative[len(s.Cumulative)-1] != s.Count {
		t.Fatalf("last cumulative %d != count %d", s.Cumulative[len(s.Cumulative)-1], s.Count)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var h Histogram
	if got := h.snapshot().quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", got)
	}
	h.Observe(time.Hour) // overflow bucket
	if got := h.snapshot().quantile(0.99); got != time.Duration(bucketBound(histBuckets-1)) {
		t.Errorf("overflow p99 = %v, want largest finite bound", got)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("x_total", "help")
}

func TestLabels(t *testing.T) {
	if got := Labels("stage", "t1", "kind", "enc"); got != `stage="t1",kind="enc"` {
		t.Fatalf("Labels = %q", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pj2k_requests_total", "Requests served.")
	g := r.GaugeWithLabels("pj2k_in_flight", "", "In-flight requests.")
	r.GaugeFunc("pj2k_queue_depth", "Queue depth.", func() int64 { return 7 })
	h1 := r.HistogramWithLabels("pj2k_request_seconds", Labels("outcome", "hit"), "Request latency.")
	h2 := r.HistogramWithLabels("pj2k_request_seconds", Labels("outcome", "miss"), "Request latency.")
	c.Add(5)
	g.Set(2)
	h1.Observe(3 * time.Millisecond)
	h2.Observe(40 * time.Millisecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE pj2k_requests_total counter",
		"pj2k_requests_total 5",
		"# TYPE pj2k_in_flight gauge",
		"pj2k_in_flight 2",
		"pj2k_queue_depth 7",
		"# TYPE pj2k_request_seconds histogram",
		`pj2k_request_seconds_bucket{outcome="hit",le="+Inf"} 1`,
		`pj2k_request_seconds_count{outcome="miss"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// HELP/TYPE must appear exactly once per family even with two series.
	if n := strings.Count(out, "# TYPE pj2k_request_seconds histogram"); n != 1 {
		t.Errorf("TYPE line appears %d times, want 1", n)
	}
}
