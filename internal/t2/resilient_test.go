package t2

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// --- Fake readers with scripted failure shapes.

// tempErr advertises Temporary() so the classifier sees it as retryable.
type tempErr struct{}

func (tempErr) Error() string   { return "fake transient failure" }
func (tempErr) Temporary() bool { return true }

// failNReader fails its first limit reads with err, then serves data.
type failNReader struct {
	data  []byte
	limit int64
	err   error
	calls atomic.Int64
}

func (r *failNReader) ReadAt(p []byte, off int64) (int, error) {
	if r.calls.Add(1) <= r.limit {
		return 0, r.err
	}
	return copy(p, r.data[off:]), nil
}

// stallReader sleeps, then scribbles a marker byte over the whole request —
// the straggler shape the owned-buffer deadline path must contain.
type stallReader struct {
	d        time.Duration
	fastFrom int64 // calls after this many respond immediately (0 = never)
	calls    atomic.Int64
	finished atomic.Int64
}

func (r *stallReader) ReadAt(p []byte, off int64) (int, error) {
	c := r.calls.Add(1)
	if r.fastFrom == 0 || c <= r.fastFrom {
		time.Sleep(r.d)
	}
	for i := range p {
		p[i] = 0xBB
	}
	r.finished.Add(1)
	return len(p), nil
}

// shortNReader returns half the requested bytes with a nil error (the
// io.ReaderAt contract violation) for its first limit calls, then behaves.
type shortNReader struct {
	data  []byte
	limit int64
	calls atomic.Int64
}

func (r *shortNReader) ReadAt(p []byte, off int64) (int, error) {
	if r.calls.Add(1) <= r.limit {
		n := copy(p[:len(p)/2], r.data[off:])
		return n, nil
	}
	return copy(p, r.data[off:]), nil
}

func resilientOver(r io.ReaderAt, size int64, pol RetryPolicy) *Source {
	return ResilientSource(NewSource(r, size), pol)
}

// --- Retry loop.

func TestResilientRetriesTransient(t *testing.T) {
	data := []byte("hello, resilient world")
	r := &failNReader{data: data, limit: 2, err: tempErr{}}
	var ctr IOCounters
	src := resilientOver(r, int64(len(data)), RetryPolicy{Retries: 3, Counters: &ctr})
	p := make([]byte, 5)
	n, err := src.ReadAt(p, 0)
	if err != nil || n != 5 || string(p) != "hello" {
		t.Fatalf("ReadAt = %d, %q, %v; want 5, \"hello\", nil", n, p, err)
	}
	if ctr.Reads.Load() != 3 || ctr.Retries.Load() != 2 || ctr.Failures.Load() != 0 {
		t.Fatalf("counters reads=%d retries=%d failures=%d; want 3, 2, 0",
			ctr.Reads.Load(), ctr.Retries.Load(), ctr.Failures.Load())
	}
}

func TestResilientPermanentFailsFirstAttempt(t *testing.T) {
	permanent := errors.New("disk on fire")
	r := &failNReader{limit: 1 << 30, err: permanent}
	var ctr IOCounters
	src := resilientOver(r, 100, RetryPolicy{Retries: 5, Counters: &ctr})
	_, err := src.ReadAt(make([]byte, 10), 20)
	var re *ReadError
	if !errors.As(err, &re) {
		t.Fatalf("error %v (%T) is not a *ReadError", err, err)
	}
	if re.Attempts != 1 || re.Transient || re.Off != 20 || re.Len != 10 {
		t.Fatalf("ReadError = %+v; want attempts 1, permanent, span [20, 30)", re)
	}
	if !errors.Is(err, permanent) {
		t.Fatal("ReadError does not wrap the underlying error")
	}
	if ctr.Reads.Load() != 1 || ctr.Retries.Load() != 0 || ctr.Failures.Load() != 1 {
		t.Fatalf("permanent failure burned retries: reads=%d retries=%d failures=%d",
			ctr.Reads.Load(), ctr.Retries.Load(), ctr.Failures.Load())
	}
	if !IsIOError(err) {
		t.Fatal("IsIOError = false for a Source read failure")
	}
}

func TestResilientRetriesExhausted(t *testing.T) {
	r := &failNReader{limit: 1 << 30, err: tempErr{}}
	var ctr IOCounters
	src := resilientOver(r, 100, RetryPolicy{Retries: 2, Counters: &ctr})
	_, err := src.ReadAt(make([]byte, 8), 0)
	var re *ReadError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a *ReadError", err)
	}
	if re.Attempts != 3 || !re.Transient {
		t.Fatalf("ReadError = %+v; want 3 attempts, transient", re)
	}
	if ctr.Reads.Load() != 3 || ctr.Retries.Load() != 2 || ctr.Failures.Load() != 1 {
		t.Fatalf("counters reads=%d retries=%d failures=%d; want 3, 2, 1",
			ctr.Reads.Load(), ctr.Retries.Load(), ctr.Failures.Load())
	}
}

func TestRetryBudgetCapsRetries(t *testing.T) {
	r := &failNReader{limit: 1 << 30, err: tempErr{}}
	var ctr IOCounters
	src := resilientOver(r, 100, RetryPolicy{Retries: 10, Budget: 3, Counters: &ctr})
	_, err := src.ReadAt(make([]byte, 4), 0)
	var re *ReadError
	if !errors.As(err, &re) || re.Attempts != 4 {
		t.Fatalf("first read: err %v; want *ReadError with 4 attempts (1 + 3 budgeted retries)", err)
	}
	if src.r.(*retryReaderAt).take() {
		t.Fatal("budget still grants a retry after exhaustion")
	}
	// The spent budget makes later reads fail fast: one attempt, no retries.
	_, err = src.ReadAt(make([]byte, 4), 8)
	if !errors.As(err, &re) || re.Attempts != 1 {
		t.Fatalf("post-budget read: err %v; want single-attempt *ReadError", err)
	}
	if ctr.Retries.Load() != 3 {
		t.Fatalf("total retries = %d; want exactly the budget of 3", ctr.Retries.Load())
	}
}

// TestResilientSourceBudget: each wrapper spends a budget of its own across
// all of its reads (two wrappers of one policy share nothing), a zero budget
// retries without limit, and a wrapper is one allocation.
func TestResilientSourceBudget(t *testing.T) {
	r := &failNReader{limit: 1 << 30, err: tempErr{}}
	for _, c := range []struct {
		budget, first, second int // then attempts of two failing reads
	}{{3, 4, 1}, {12, 11, 3}, {0, 11, 11}} {
		pol := RetryPolicy{Retries: 10, Budget: c.budget}
		for range 2 {
			src := ResilientSource(NewSource(r, 100), pol)
			for i, want := range []int{c.first, c.second} {
				_, err := src.ReadAt(make([]byte, 4), int64(8*i))
				var re *ReadError
				if !errors.As(err, &re) || re.Attempts != want {
					t.Fatalf("budget %d, read %d: err %v; want *ReadError with %d attempts", c.budget, i, err, want)
				}
			}
		}
	}
	inner := NewSource(r, 100)
	pol := RetryPolicy{Retries: 10, Budget: 3}
	if n := testing.AllocsPerRun(20, func() { sinkSource = ResilientSource(inner, pol) }); n != 1 {
		t.Fatalf("ResilientSource allocates %.0f times, want 1", n)
	}
}

// sinkSource keeps a measured wrapper on the heap, where a caller's is.
var sinkSource *Source

// --- Per-read deadline.

func TestReadTimeoutAbandonsStalledRead(t *testing.T) {
	r := &stallReader{d: 500 * time.Millisecond}
	var ctr IOCounters
	src := resilientOver(r, 100, RetryPolicy{ReadTimeout: 10 * time.Millisecond, Counters: &ctr})
	start := time.Now()
	_, err := src.ReadAt(make([]byte, 16), 0)
	elapsed := time.Since(start)
	var re *ReadError
	if !errors.As(err, &re) || !re.Transient {
		t.Fatalf("stalled read: err %v; want transient *ReadError", err)
	}
	if elapsed >= 400*time.Millisecond {
		t.Fatalf("read took %v; the deadline did not abandon the stall", elapsed)
	}
	if ctr.Timeouts.Load() != 1 {
		t.Fatalf("timeouts = %d; want 1", ctr.Timeouts.Load())
	}
}

func TestReadTimeoutStragglerCannotScribble(t *testing.T) {
	r := &stallReader{d: 50 * time.Millisecond}
	src := resilientOver(r, 100, RetryPolicy{ReadTimeout: 5 * time.Millisecond})
	p := make([]byte, 16)
	for i := range p {
		p[i] = 0xAA
	}
	if _, err := src.ReadAt(p, 0); err == nil {
		t.Fatal("stalled read did not fail")
	}
	// Wait for the abandoned straggler to finish its scribble, then verify it
	// landed in the owned buffer, not the caller's memory.
	deadline := time.Now().Add(2 * time.Second)
	for r.finished.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if r.finished.Load() == 0 {
		t.Fatal("straggler never completed")
	}
	for i, b := range p {
		if b != 0xAA {
			t.Fatalf("caller buffer byte %d = %#x; straggler scribbled on abandoned memory", i, b)
		}
	}
}

func TestReadTimeoutRecoversOnRetry(t *testing.T) {
	data := []byte("0123456789abcdef")
	// First call stalls past the deadline; the retry responds instantly (the
	// scribble marker is what a successful stallReader read returns).
	r := &stallReader{d: 60 * time.Millisecond, fastFrom: 1}
	var ctr IOCounters
	src := resilientOver(r, int64(len(data)), RetryPolicy{
		Retries: 2, ReadTimeout: 15 * time.Millisecond, Counters: &ctr,
	})
	p := make([]byte, 8)
	if n, err := src.ReadAt(p, 0); err != nil || n != 8 {
		t.Fatalf("ReadAt = %d, %v; want full read after timed-out first attempt", n, err)
	}
	if ctr.Timeouts.Load() < 1 || ctr.Retries.Load() < 1 {
		t.Fatalf("timeouts=%d retries=%d; the deadline path never fired", ctr.Timeouts.Load(), ctr.Retries.Load())
	}
}

// --- Short reads.

func TestShortReadRetried(t *testing.T) {
	data := []byte("0123456789abcdef")
	r := &shortNReader{data: data, limit: 1}
	src := resilientOver(r, int64(len(data)), RetryPolicy{Retries: 1})
	p := make([]byte, 8)
	if n, err := src.ReadAt(p, 0); err != nil || n != 8 || string(p) != "01234567" {
		t.Fatalf("ReadAt = %d, %q, %v; want the retry to deliver the full read", n, p, err)
	}
}

func TestShortReadWithoutRetriesIsTyped(t *testing.T) {
	data := []byte("0123456789abcdef")
	r := &shortNReader{data: data, limit: 1 << 30}
	src := resilientOver(r, int64(len(data)), RetryPolicy{})
	_, err := src.ReadAt(make([]byte, 8), 0)
	var re *ReadError
	if !errors.As(err, &re) || !re.Transient {
		t.Fatalf("short read: err %v; want transient *ReadError", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short read error %v does not wrap io.ErrUnexpectedEOF", err)
	}
}

// --- Classification.

func TestTransientClassifier(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"temporary", tempErr{}, true},
		{"timeout", timeoutError{time.Second}, true},
		{"deadline-os", os.ErrDeadlineExceeded, true},
		{"deadline-ctx", context.DeadlineExceeded, true},
		{"short-read", io.ErrUnexpectedEOF, true},
		{"wrapped-deadline", fmt.Errorf("tile 3: %w", os.ErrDeadlineExceeded), true},
		{"plain", errors.New("no such device"), false},
		{"eof", io.EOF, false},
		// A ReadError's own verdict wins over whatever it wraps: the retry
		// layer already classified (and possibly retried) the inner error.
		{"readerror-permanent-wrapping-temporary", &ReadError{Transient: false, Err: tempErr{}}, false},
		{"readerror-transient", &ReadError{Transient: true, Err: errors.New("x")}, true},
	}
	for _, c := range cases {
		if got := isTransient(c.err); got != c.want {
			t.Errorf("isTransient(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// --- Backoff.

func TestBackoffDeterministicJitter(t *testing.T) {
	run := func() []time.Duration {
		var sleeps []time.Duration
		r := &failNReader{limit: 1 << 30, err: tempErr{}}
		src := resilientOver(r, 100, RetryPolicy{
			Retries: 4, Backoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond,
			JitterSeed: 42,
			Sleep:      func(d time.Duration) { sleeps = append(sleeps, d) },
		})
		src.ReadAt(make([]byte, 4), 96)
		return sleeps
	}
	a, b := run(), run()
	if len(a) != 4 {
		t.Fatalf("%d sleeps for 4 retries; want 4", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter is not deterministic: run1[%d]=%v run2[%d]=%v", i, a[i], i, b[i])
		}
	}
	// Exponential growth with ±25% jitter: attempt i sleeps in
	// [0.75*base, 1.75*base) for base = min(1ms << i, 8ms).
	for i, d := range a {
		base := time.Millisecond << uint(i)
		if base > 8*time.Millisecond {
			base = 8 * time.Millisecond
		}
		if d < base*3/4 || d >= base*7/4 {
			t.Errorf("sleep %d = %v outside jitter window around %v", i, d, base)
		}
	}
}

// --- Source integration: typed errors, All guard, Close semantics.

func TestSourceReadAtWrapsErrors(t *testing.T) {
	r := &failNReader{limit: 1 << 30, err: errors.New("bad sector")}
	src := NewSource(r, 64)
	_, err := src.ReadAt(make([]byte, 8), 16)
	var re *ReadError
	if !errors.As(err, &re) || re.Off != 16 || re.Len != 8 {
		t.Fatalf("raw Source read failure %v is not a spanned *ReadError", err)
	}
	// A bounds violation is a caller bug, not an IO fault.
	_, err = src.ReadAt(make([]byte, 8), 60)
	if err == nil || IsIOError(err) {
		t.Fatalf("out-of-bounds read: err %v; want a plain (non-IO) error", err)
	}
}

func TestResilientWrapperDoesNotOwnFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.bin")
	if err := os.WriteFile(path, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rs := ResilientSource(src, RetryPolicy{Retries: 1})
	if err := rs.Close(); err != nil {
		t.Fatalf("closing the wrapper: %v", err)
	}
	// The wrapper's Close must not have closed the file under the original.
	if _, err := src.ReadAt(make([]byte, 4), 0); err != nil {
		t.Fatalf("original source read after wrapper Close: %v", err)
	}
	if err := src.Close(); err != nil {
		t.Fatalf("closing the original: %v", err)
	}
	if _, err := src.ReadAt(make([]byte, 4), 0); err == nil {
		t.Fatal("read succeeded through a closed file source")
	}
}

// blockedReader holds every read until release is closed: a reader that
// stalls for good, as a dead mount does.
type blockedReader struct{ release chan struct{} }

func (r blockedReader) ReadAt(p []byte, off int64) (int, error) {
	<-r.release
	return len(p), nil
}

// TestAbandonedReadsBounded: reads abandoned at the deadline over a reader
// that never answers leave at most maxAbandonedReads goroutines behind, and
// every attempt past the cap fails at once, starting none. Each abandoned
// or refused attempt is one timeout.
func TestAbandonedReadsBounded(t *testing.T) {
	r := blockedReader{release: make(chan struct{})}
	var ctr IOCounters
	const deadline = 10 * time.Millisecond
	src := resilientOver(r, 1<<20, RetryPolicy{ReadTimeout: deadline, Counters: &ctr})
	before := runtime.NumGoroutine()
	const reads = 200
	p := make([]byte, 4096)
	for i := range reads {
		start := time.Now()
		if _, err := src.ReadAt(p, int64(i)); !IsIOError(err) {
			t.Fatalf("read %d over a stalled reader: err %v; want a *ReadError", i, err)
		}
		if took := time.Since(start); i >= maxAbandonedReads && took >= deadline {
			t.Fatalf("read %d, past the cap, took %v; want a refusal within the %v deadline", i, took, deadline)
		}
		if n := runtime.NumGoroutine() - before; n > maxAbandonedReads {
			t.Fatalf("after %d stalled reads %d goroutines are left behind; cap %d", i+1, n, maxAbandonedReads)
		}
	}
	if got := ctr.Timeouts.Load(); got != reads {
		t.Fatalf("timeouts = %d; want one per abandoned or refused attempt (%d)", got, reads)
	}
	// Once the reader answers, the stragglers end and the wrapper reads again.
	close(r.release)
	for end := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%d abandoned readers never exited", runtime.NumGoroutine()-before)
		}
	}
	if _, err := src.ReadAt(p, 0); err != nil {
		t.Fatalf("read after the stragglers ended: %v", err)
	}
}
