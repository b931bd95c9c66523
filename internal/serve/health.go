package serve

// Per-image IO health and quarantine: the serving tier's answer to a source
// that stopped reading (failing NFS mount, yanked disk, dead object-store
// shard). Tile decodes report IO success/failure per image; after
// QuarantineAfter consecutive failures the image is quarantined — requests
// answer 503 + Retry-After instead of burning a decode worker on a source
// that will fail anyway — and a background probe re-reads the failing span
// until it succeeds, at which point the image returns to service on its own.

import (
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pj2k/internal/t2"
)

// imageHealth is one image's consecutive-IO-failure state. probeOff/probeLen
// remember the span of the last failed read, so the recovery probe re-reads
// the bytes that actually failed rather than an arbitrary offset.
type imageHealth struct {
	mu          sync.Mutex
	consecFails int
	quarantined bool
	probeOff    int64
	probeLen    int
}

// quarantineAfter resolves the Options knob: 0 means the default, negative
// disables quarantine entirely.
func (s *Server) quarantineAfter() int {
	if s.opts.QuarantineAfter < 0 {
		return 0
	}
	if s.opts.QuarantineAfter == 0 {
		return defaultQuarantineAfter
	}
	return s.opts.QuarantineAfter
}

// probeInterval resolves the re-probe cadence (also the Retry-After hint).
func (s *Server) probeInterval() time.Duration {
	if s.opts.ProbeInterval > 0 {
		return s.opts.ProbeInterval
	}
	return defaultProbeInterval
}

// ioPolicy is the per-request retry policy handed to ResilientSource: the
// server-wide retry/deadline knobs, feeding the shared IO counters, with the
// request's retry budget (unlimited when IORetryBudget is negative).
func (s *Server) ioPolicy() t2.RetryPolicy {
	budget := s.opts.IORetryBudget
	if budget == 0 {
		budget = defaultIORetryBudget
	}
	return t2.RetryPolicy{
		Retries:     s.ioRetries,
		Backoff:     2 * time.Millisecond,
		MaxBackoff:  250 * time.Millisecond,
		ReadTimeout: s.opts.IOReadTimeout,
		JitterSeed:  0x7069326b_73657276, // constant: jitter mixes in offset+attempt
		Budget:      max(budget, 0),
		Counters:    s.ioc,
	}
}

// requestSource returns the source a request's tile decodes read img through:
// the raw source when the IO layer is fully disabled, otherwise a per-request
// resilient wrapper, whose reads all spend the request's one retry budget.
func (s *Server) requestSource(img *Image) *t2.Source {
	if s.ioRetries <= 0 && s.opts.IOReadTimeout <= 0 {
		return img.src
	}
	return t2.ResilientSource(img.src, s.ioPolicy())
}

// isQuarantined reports whether img is currently quarantined.
func (s *Server) isQuarantined(img *Image) bool {
	img.health.mu.Lock()
	q := img.health.quarantined
	img.health.mu.Unlock()
	return q
}

// rejectQuarantined answers a request for a quarantined image: 503 with the
// probe interval as the Retry-After hint, counted distinctly from shedding.
func (s *Server) rejectQuarantined(w http.ResponseWriter, id string) {
	s.quarantinedReqs.Inc()
	secs := int(s.probeInterval().Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.fail(w, http.StatusServiceUnavailable,
		"image %q quarantined after repeated IO failures; probing for recovery", id)
}

// noteIOSuccess resets img's consecutive-failure streak after a decode that
// read the source cleanly.
func (s *Server) noteIOSuccess(img *Image) {
	h := &img.health
	h.mu.Lock()
	h.consecFails = 0
	h.mu.Unlock()
}

// noteIOFailure records one IO-failed decode against img; crossing the
// quarantine threshold flips the image out of service and starts the
// recovery probe. err (when it wraps a *t2.ReadError) pins the probe to the
// span that failed.
func (s *Server) noteIOFailure(img *Image, err error) {
	threshold := s.quarantineAfter()
	if threshold == 0 {
		return
	}
	h := &img.health
	h.mu.Lock()
	var re *t2.ReadError
	if errors.As(err, &re) {
		h.probeOff, h.probeLen = re.Off, re.Len
	}
	h.consecFails++
	if h.quarantined || h.consecFails < threshold {
		h.mu.Unlock()
		return
	}
	h.quarantined = true
	h.mu.Unlock()
	s.quarantines.Inc()
	s.quarActive.Add(1)
	s.probeWG.Add(1)
	go s.probeLoop(img)
}

// probeLoop re-probes a quarantined image's source until a read succeeds
// (recover and exit) or the server closes. One loop per quarantined image.
func (s *Server) probeLoop(img *Image) {
	defer s.probeWG.Done()
	t := time.NewTicker(s.probeInterval())
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			if !s.probeOnce(img) {
				continue
			}
			h := &img.health
			h.mu.Lock()
			h.quarantined = false
			h.consecFails = 0
			h.mu.Unlock()
			s.quarActive.Add(-1)
			s.quarantineRecoveries.Inc()
			return
		}
	}
}

// probeOnce issues one cheap liveness read against the span that failed
// (capped at 4 KiB, falling back to the stream head), with no retries — the
// probe itself must stay cheap against a still-dead source.
func (s *Server) probeOnce(img *Image) bool {
	h := &img.health
	h.mu.Lock()
	off, ln := h.probeOff, int64(h.probeLen)
	h.mu.Unlock()
	sz := img.Size()
	if off < 0 || off >= sz {
		off = 0
	}
	if ln <= 0 || ln > 4096 {
		ln = 4096
	}
	if off+ln > sz {
		ln = sz - off
	}
	if ln <= 0 {
		return true
	}
	buf := make([]byte, ln)
	_, err := img.src.ReadAt(buf, off)
	return err == nil
}
