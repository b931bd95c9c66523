package t2

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"
)

// ReadError is the typed failure of a Source read: the byte range that could
// not be read, how many attempts were made, and whether the final error was
// transient (a retry might have helped) or permanent. Every read failure that
// escapes a Source — wrapped or not in a ResilientSource — is a *ReadError,
// so callers at any tier can classify IO failures with errors.As without
// knowing what reader backs the stream.
type ReadError struct {
	Off       int64 // offset of the failed read
	Len       int   // requested length
	Attempts  int   // read attempts made (1 when retries are off)
	Transient bool  // the final error was transient (deadline, Temporary, short read)
	Err       error // the underlying reader's error
}

func (e *ReadError) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("t2: read [%d, %d) failed after %d attempt(s) (%s): %v",
		e.Off, e.Off+int64(e.Len), e.Attempts, kind, e.Err)
}

func (e *ReadError) Unwrap() error { return e.Err }

// IsIOError reports whether err (or anything it wraps) is a Source read
// failure — the classification the serving tier uses to feed per-image IO
// health, as opposed to parse errors or caller bugs.
func IsIOError(err error) bool {
	var re *ReadError
	return errors.As(err, &re)
}

// isTransient classifies an IO error: true when a retry could plausibly succeed
// (deadline expiries, errors advertising Timeout() or Temporary(), short-read
// contract violations), false for everything else — closed files, missing
// ranges, corrupt filesystems. Permanent failures must not burn retry budget.
func isTransient(err error) bool {
	if err == nil {
		return false
	}
	var re *ReadError
	if errors.As(err, &re) {
		return re.Transient
	}
	var to interface{ Timeout() bool }
	if errors.As(err, &to) && to.Timeout() {
		return true
	}
	var tmp interface{ Temporary() bool }
	if errors.As(err, &tmp) && tmp.Temporary() {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, os.ErrDeadlineExceeded) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}

// IOCounters aggregates the IO traffic of any number of resilient sources
// sharing it. All fields are atomic; a nil *IOCounters disables counting.
type IOCounters struct {
	Reads    atomic.Int64 // read attempts issued to the underlying reader
	Retries  atomic.Int64 // attempts that were retries of a failed read
	Failures atomic.Int64 // reads that failed for good (retries exhausted or permanent)
	Timeouts atomic.Int64 // attempts abandoned at the per-read deadline
}

// RetryPolicy shapes a ResilientSource: how many times a transient read
// failure is retried, how backoff grows, the per-read deadline, and where
// counters land. The zero policy retries nothing but still classifies errors,
// detects short reads and honors the deadline machinery.
type RetryPolicy struct {
	// Retries is the maximum retry count per read (attempts = Retries + 1).
	Retries int
	// Backoff is the sleep before the first retry; it doubles per retry.
	// Zero sleeps not at all (useful in tests and for purely local sources).
	Backoff time.Duration
	// MaxBackoff caps the doubling. Zero means uncapped.
	MaxBackoff time.Duration
	// ReadTimeout bounds each attempt: a read still outstanding past it is
	// abandoned (counted as a timeout, classified transient) so a stalled
	// reader cannot hang a decode worker. Zero disables the deadline.
	// Deadline-guarded attempts read through an owned buffer, so an
	// abandoned straggler can never scribble on the caller's memory.
	ReadTimeout time.Duration
	// JitterSeed keys the deterministic backoff jitter (splitmix64 over
	// seed/offset/attempt): concurrent tile reads de-synchronize without any
	// global randomness, and a given failure always replays identically.
	JitterSeed uint64
	// Budget, when positive, caps the retries all reads through one wrapper
	// may spend in total; reads keep failing fast once it is spent. It is
	// the per-request bound that keeps one degraded image from multiplying
	// a request's latency by retries x tiles: the serving tier builds one
	// wrapper per request. Zero leaves the total unbounded.
	Budget int
	// Counters, when set, receives the read/retry/failure/timeout traffic.
	Counters *IOCounters
	// Sleep replaces time.Sleep between attempts (tests inject a fake).
	Sleep func(time.Duration)
}

// ResilientSource wraps src's reader in the retry/deadline/classification
// layer of pol and returns a Source over it, whatever backs src. The wrapper
// does not own the underlying reader: closing it is a no-op, and the original
// Source's Close still releases the file. A wrapper is one allocation, its
// reader and retry budget included.
func ResilientSource(src *Source, pol RetryPolicy) *Source {
	if pol.Sleep == nil {
		pol.Sleep = time.Sleep
	}
	rs := &struct {
		src Source
		rr  retryReaderAt
	}{rr: retryReaderAt{r: src.r, pol: pol}}
	rs.src = Source{r: &rs.rr, size: src.size}
	return &rs.src
}

// retryReaderAt is the io.ReaderAt implementing RetryPolicy over a raw
// reader. It is safe for concurrent use when the wrapped reader is.
type retryReaderAt struct {
	r     io.ReaderAt
	pol   RetryPolicy
	spent atomic.Int64 // retries taken from pol.Budget
}

// take consumes one retry of the budget, reporting false when it is spent.
func (rr *retryReaderAt) take() bool {
	return rr.pol.Budget <= 0 || rr.spent.Add(1) <= int64(rr.pol.Budget)
}

func (rr *retryReaderAt) ReadAt(p []byte, off int64) (int, error) {
	pol := &rr.pol
	for attempt := 0; ; attempt++ {
		if pol.Counters != nil {
			pol.Counters.Reads.Add(1)
		}
		n, err := rr.readOnce(p, off)
		if err == io.EOF && n == len(p) {
			err = nil
		}
		if err == nil && n < len(p) {
			// ReaderAt contract violation: a short read must carry an error.
			// Treat it as a transient fault — the bytes exist, the reader
			// just failed to deliver them this time.
			err = io.ErrUnexpectedEOF
		}
		if err == nil {
			return n, nil
		}
		transient := isTransient(err)
		if !transient || attempt >= pol.Retries || !rr.take() {
			if pol.Counters != nil {
				pol.Counters.Failures.Add(1)
			}
			return 0, &ReadError{Off: off, Len: len(p), Attempts: attempt + 1, Transient: transient, Err: err}
		}
		if pol.Counters != nil {
			pol.Counters.Retries.Add(1)
		}
		if d := pol.backoff(off, attempt); d > 0 {
			pol.Sleep(d)
		}
	}
}

// readOnce issues one attempt, under the per-read deadline when configured.
// The deadline path reads into an owned buffer on a goroutine: whichever of
// {reader, timer} wins a CAS claims the result, so a straggling read that
// completes after abandonment has nowhere to write but its own garbage.
func (rr *retryReaderAt) readOnce(p []byte, off int64) (int, error) {
	if rr.pol.ReadTimeout <= 0 {
		return rr.r.ReadAt(p, off)
	}
	type result struct {
		n   int
		err error
	}
	buf := make([]byte, len(p))
	done := make(chan result, 1)
	var claimed atomic.Bool
	go func() {
		n, err := rr.r.ReadAt(buf, off)
		if claimed.CompareAndSwap(false, true) {
			done <- result{n, err}
		}
	}()
	timer := time.NewTimer(rr.pol.ReadTimeout)
	defer timer.Stop()
	select {
	case res := <-done:
		copy(p, buf[:res.n])
		return res.n, res.err
	case <-timer.C:
		if claimed.CompareAndSwap(false, true) {
			if rr.pol.Counters != nil {
				rr.pol.Counters.Timeouts.Add(1)
			}
			return 0, timeoutError{rr.pol.ReadTimeout}
		}
		// The reader won the claim as the timer fired: take its result.
		res := <-done
		copy(p, buf[:res.n])
		return res.n, res.err
	}
}

// backoff returns the sleep before retrying attempt (0-based): exponential
// from Backoff, capped at MaxBackoff, with deterministic ±25% jitter keyed by
// (seed, offset, attempt).
func (pol *RetryPolicy) backoff(off int64, attempt int) time.Duration {
	d := pol.Backoff
	if d <= 0 {
		return 0
	}
	if attempt > 30 {
		attempt = 30
	}
	d <<= uint(attempt)
	if pol.MaxBackoff > 0 && d > pol.MaxBackoff {
		d = pol.MaxBackoff
	}
	if j := d / 4; j > 0 {
		x := pol.JitterSeed ^ uint64(off)*0x9E3779B97F4A7C15 ^ uint64(attempt+1)
		d = d - j + time.Duration(splitmix64(&x)%uint64(2*j))
	}
	return d
}

// splitmix64 is the deterministic PRNG behind the backoff jitter.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// timeoutError is the per-read deadline expiry; Timeout() marks it transient.
type timeoutError struct{ d time.Duration }

func (e timeoutError) Error() string { return fmt.Sprintf("t2: read exceeded %v deadline", e.d) }
func (e timeoutError) Timeout() bool { return true }
