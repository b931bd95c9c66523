package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span sources: a timed span brackets a direct call the benchmark makes into
// a layer's public function; a reported span carries a duration the public
// API returned (EncodeStats.Timings, Decoder.Stats) laid out inside the call
// span that produced it.
const (
	srcTimed    = "timed"
	srcReported = "reported"
)

// span is one recorded interval. Spans of one operation share Op; Parent is
// the id of the span that caused this one (-1 for an operation's root).
// Times are nanoseconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Source string `json:"source"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	// Counts recorded at the same boundary, so ratios are measured where the
	// work happens. Which ones a span carries depends on its name.
	Mpix    float64 `json:"mpix,omitempty"`     // megapixels processed
	N       int64   `json:"n,omitempty"`        // blocks, symbols, tiles, dispatches
	Bytes   int64   `json:"bytes,omitempty"`    // bytes produced or read
	Reads   int64   `json:"reads,omitempty"`    // positioned source reads
	Passes  int64   `json:"passes,omitempty"`   // tier-1 coding passes
	VertNS  int64   `json:"vert_ns,omitempty"`  // vertical filtering inside a forward DWT span
	HorizNS int64   `json:"horiz_ns,omitempty"` // horizontal filtering inside a forward DWT span
	Workers int     `json:"workers,omitempty"`  // Workers of a codec call
	Reduce  int     `json:"reduce,omitempty"`   // discard levels of a tile decode
	Probe   bool    `json:"probe,omitempty"`    // op added by the harness to reach a layer the workload's own ops do not
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the workload ends. It is safe for
// concurrent use; begin/end pairs may interleave across goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an operation id.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops - 1
}

// begin opens a timed span and returns its id.
func (t *tracer) begin(parent, op int, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Source: srcTimed, Start: now, End: now})
	return id
}

// end closes span id; set, when non-nil, fills in the span's counts.
func (t *tracer) end(id int, set func(*span)) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	if set != nil {
		set(&t.spans[id])
	}
}

// annotate edits an already recorded span.
func (t *tracer) annotate(id int, set func(*span)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	set(&t.spans[id])
}

// reported lays durations the public API returned end to end inside span
// parent, starting at its start. A reported total that overshoots the
// parent (clock granularity) is clipped at the parent's end, so children
// always lie inside their parent.
func (t *tracer) reported(parent, op int, names []string, durs []time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at, limit := t.spans[parent].Start, t.spans[parent].End
	for i, name := range names {
		end := min(at+durs[i].Nanoseconds(), limit)
		t.spans = append(t.spans, span{
			ID: len(t.spans), Parent: parent, Op: op, Name: name, Source: srcReported, Start: at, End: end,
		})
		at = end
	}
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval its children cover (children may overlap each other).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].End - spans[i].Start - covered(spans, kids[i])
	}
	return self
}

// covered returns the length of the union of the given spans' intervals.
func covered(spans []span, ids []int) int64 {
	if len(ids) == 0 {
		return 0
	}
	// Children are appended in start order per goroutine but may interleave
	// across goroutines; an insertion sort by start keeps this allocation
	// free for the common already-sorted case.
	s := append([]int(nil), ids...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && spans[s[j]].Start < spans[s[j-1]].Start; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	var total int64
	lo, hi := spans[s[0]].Start, spans[s[0]].End
	for _, id := range s[1:] {
		if spans[id].Start > hi {
			total += hi - lo
			lo, hi = spans[id].Start, spans[id].End
			continue
		}
		hi = max(hi, spans[id].End)
	}
	return total + hi - lo
}

// traceFile is the on-disk form of one workload's trace.
type traceFile struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Spans    []span  `json:"spans"`
	SelfNS   []int64 `json:"self_ns"` // per span id
}

// write stores the trace at path.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	doc := traceFile{Workload: workload, Seed: seed, Spans: t.spans, SelfNS: selfTimes(t.spans)}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sel returns the spans with the given name that satisfy keep (nil keeps all).
func (t *tracer) sel(name string, keep func(*span) bool) []*span {
	var out []*span
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, s)
		}
	}
	return out
}

// totals sums duration (ms) and counts over spans.
type totals struct {
	n            int
	ms, mpix     float64
	count, bytes int64
	reads        int64
	passes       int64
}

func total(spans []*span) totals {
	var t totals
	for _, s := range spans {
		t.n++
		t.ms += s.ms()
		t.mpix += s.Mpix
		t.count += s.N
		t.bytes += s.Bytes
		t.reads += s.Reads
		t.passes += s.Passes
	}
	return t
}
