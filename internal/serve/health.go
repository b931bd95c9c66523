package serve

// Per-image IO health and quarantine: the serving tier's answer to a source
// that stopped reading (failing NFS mount, yanked disk, dead object-store
// shard). Tile decodes, and the packet-map and prefix reads of /info and
// /stream, report IO success/failure per image; after QuarantineAfter
// consecutive failures the image is quarantined — requests answer 503 +
// Retry-After instead of burning a decode worker on a source that will fail
// anyway — and a background probe re-reads the failing span until it
// succeeds, at which point the image returns to service on its own.

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

// refuseQuarantined answers a request for a quarantined image — 503 with the
// probe interval as the Retry-After hint, counted distinctly from shedding —
// and reports whether img was quarantined.
func (s *Server) refuseQuarantined(w http.ResponseWriter, img *Image) bool {
	img.health.mu.Lock()
	q := img.health.quarantined
	img.health.mu.Unlock()
	if !q {
		return false
	}
	s.quarantinedReqs.Inc()
	secs := max(int(s.opts.ProbeInterval.Round(time.Second)/time.Second), 1)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.fail(w, http.StatusServiceUnavailable,
		"image %q quarantined after repeated IO failures; probing for recovery", img.ID)
	return true
}

// recordIO records one verdict on img's source: a decode (or an /info or
// /stream request) that read it cleanly resets the failure streak, one that
// failed on IO extends it, and crossing the quarantine threshold flips the
// image out of service and starts the recovery probe. err (when it wraps a
// *t2.ReadError) pins the probe to the span that failed.
func (s *Server) recordIO(img *Image, failed bool, err error) {
	h := &img.health
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case !failed:
		h.consecFails = 0
		return
	case s.opts.QuarantineAfter < 0:
		return
	}
	var re *t2.ReadError
	if errors.As(err, &re) {
		h.probeOff, h.probeLen = re.Off, re.Len
	}
	h.consecFails++
	if h.quarantined || h.consecFails < s.opts.QuarantineAfter {
		return
	}
	h.quarantined = true
	s.quarantines.Inc()
	s.quarActive.Add(1)
	s.probeWG.Add(1)
	go s.probeLoop(img)
}

// probeLoop re-probes a quarantined image's source until a read succeeds
// (recover and exit) or the server closes. One loop per quarantined image.
func (s *Server) probeLoop(img *Image) {
	defer s.probeWG.Done()
	t := time.NewTicker(s.opts.ProbeInterval)
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
