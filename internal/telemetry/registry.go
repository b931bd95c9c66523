package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricKind discriminates the registry's entries for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindCounterFunc
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// metric is one registered series: a family name, optional label pairs (a
// pre-rendered `k="v",...` string), and the backing instrument. Families with
// several label sets register one metric per label set under the same name.
type metric struct {
	name   string
	labels string // rendered label body, "" for unlabeled series
	help   string
	kind   metricKind
	ctr    *Counter
	gauge  *Gauge
	fn     func() int64
	hist   *Histogram
}

// Registry is an ordered collection of metrics with Prometheus text
// exposition. Registration locks; the returned instruments record without
// touching the registry again, so registration cost is paid once at startup.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	index   map[string]*metric // name + "{" + labels: duplicate registration guard
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

// Labels renders label pairs for the *WithLabels registration calls:
// Labels("stage", "t1") → `stage="t1"`. Pairs must alternate key, value.
func Labels(kv ...string) string {
	if len(kv)%2 != 0 {
		panic("telemetry: Labels needs key/value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(kv[i+1])
		b.WriteByte('"')
	}
	return b.String()
}

func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := m.name + "{" + m.labels
	if prev, ok := r.index[key]; ok {
		panic(fmt.Sprintf("telemetry: duplicate registration of %s{%s} (help %q)", m.name, m.labels, prev.help))
	}
	r.index[key] = m
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: kindCounter, ctr: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at exposition
// time — for monotone totals another subsystem already maintains atomically.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(&metric{name: name, help: help, kind: kindCounterFunc, fn: fn})
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeWithLabels(name, "", help)
}

// GaugeWithLabels registers a gauge series under a family name with the given
// rendered labels (see Labels) — the shape of the conventional
// `*_build_info{...} 1` metric.
func (r *Registry) GaugeWithLabels(name, labels, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, labels: labels, help: help, kind: kindGauge, gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at exposition time
// — the shape for values another subsystem already maintains (queue depths,
// cache occupancy) that would be racy or wasteful to mirror.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(&metric{name: name, help: help, kind: kindGaugeFunc, fn: fn})
}

// Histogram registers and returns an unlabeled latency histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.HistogramWithLabels(name, "", help)
}

// HistogramWithLabels registers a histogram series under a family name with
// the given rendered labels (see Labels).
func (r *Registry) HistogramWithLabels(name, labels, help string) *Histogram {
	h := &Histogram{}
	r.register(&metric{name: name, labels: labels, help: help, kind: kindHistogram, hist: h})
	return h
}

// formatLe renders a bucket bound in seconds the way Prometheus clients do:
// shortest float text that round-trips.
func formatLe(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// seconds renders a nanosecond total as seconds.
func seconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// WritePrometheus emits every registered metric in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE headers once per family,
// histograms as cumulative _bucket/_sum/_count series with le bounds in
// seconds. Families keep registration order; series within a family are
// emitted together even when registered apart.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	// Group series by family, preserving first-appearance order.
	order := make([]string, 0, len(r.metrics))
	families := make(map[string][]*metric, len(r.metrics))
	for _, m := range r.metrics {
		if _, ok := families[m.name]; !ok {
			order = append(order, m.name)
		}
		families[m.name] = append(families[m.name], m)
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, name := range order {
		fam := families[name]
		typ := "counter"
		switch fam[0].kind {
		case kindGauge, kindGaugeFunc:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", name, fam[0].help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
		for _, m := range fam {
			switch m.kind {
			case kindCounter:
				writeSample(&b, m.name, m.labels, strconv.FormatInt(m.ctr.Value(), 10))
			case kindCounterFunc:
				writeSample(&b, m.name, m.labels, strconv.FormatInt(m.fn(), 10))
			case kindGauge:
				writeSample(&b, m.name, m.labels, strconv.FormatInt(m.gauge.Value(), 10))
			case kindGaugeFunc:
				writeSample(&b, m.name, m.labels, strconv.FormatInt(m.fn(), 10))
			case kindHistogram:
				s := m.hist.Snapshot()
				for i := 0; i < histBuckets; i++ {
					writeSample(&b, m.name+"_bucket", joinLabels(m.labels, `le="`+formatLe(BucketBound(i))+`"`),
						strconv.FormatUint(s.Cumulative[i], 10))
				}
				writeSample(&b, m.name+"_bucket", joinLabels(m.labels, `le="+Inf"`),
					strconv.FormatUint(s.Count, 10))
				writeSample(&b, m.name+"_sum", m.labels, seconds(s.SumNanos))
				writeSample(&b, m.name+"_count", m.labels, strconv.FormatUint(s.Count, 10))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSample emits one exposition line.
func writeSample(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// joinLabels concatenates two rendered label bodies.
func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// LatencySummary is the JSON-friendly percentile digest of one histogram,
// the /stats view of what /metrics exposes as buckets.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// Summary digests a histogram into count/mean/p50/p90/p99 milliseconds.
func Summary(h *Histogram) LatencySummary {
	s := h.Snapshot()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LatencySummary{
		Count:  s.Count,
		MeanMS: ms(s.Mean()),
		P50MS:  ms(s.Quantile(0.50)),
		P90MS:  ms(s.Quantile(0.90)),
		P99MS:  ms(s.Quantile(0.99)),
	}
}
