package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pj2k/internal/core"
	"pj2k/internal/dwt"
	"pj2k/internal/jp2k"
	"pj2k/internal/t2"
	"pj2k/internal/telemetry"
)

// Options configures a Server.
type Options struct {
	// CacheBytes is the decoded-tile cache budget: 0 uses defaultCacheBytes,
	// negative disables caching (every request decodes; concurrent misses
	// are still deduplicated in flight). Tiles are held in wire form, so a
	// tile costs its width x height x components x bytes per sample (1 up
	// to 8-bit samples, 2 above), plus a small per-entry overhead.
	CacheBytes int64
	// TileWorkers bounds the parallelism of one tile decode: it is the
	// decode's Workers, which bounds every stage in every coder mode. The
	// default 1 is right for servers: concurrency comes from concurrent
	// requests, and single-worker tile decodes keep per-request CPU bounded.
	TileWorkers int
	// MaxPixels rejects region requests larger than this many output pixels
	// (protects against accidental whole-gigapixel fetches); <= 0 uses
	// defaultMaxPixels.
	MaxPixels int64
	// Timeout bounds each decode-bearing request: past it the request fails
	// with 504 and the decode pipeline stops at its next stage boundary.
	// 0 means unbounded.
	Timeout time.Duration
	// MaxInFlight bounds concurrently admitted decode-bearing requests
	// (/img/{id} and /img/{id}/stream); excess load is shed with
	// 503 + Retry-After instead of queueing without bound. 0 uses
	// DefaultMaxInFlight, negative disables shedding.
	MaxInFlight int
	// Resilient decodes tiles in best-effort mode: damaged codestreams
	// degrade into partially-concealed tiles and damage counters in /stats
	// instead of failing the request.
	Resilient bool
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/ so a live
	// server can be CPU/heap/goroutine-profiled under load. Off by default:
	// profiles expose internals and cost CPU while running.
	Pprof bool
	// IORetries is the per-read retry count for reader-backed sources: a
	// transient ReadAt failure (timeout, Temporary error, short read) retries
	// with exponential backoff before the tile decode sees it. 0 uses
	// DefaultIORetries, negative disables retries.
	IORetries int
	// IOReadTimeout bounds each source read; a stalled ReaderAt is abandoned
	// past it (and the attempt counts as transient, so retries apply).
	// 0 disables the per-read deadline.
	IOReadTimeout time.Duration
	// IORetryBudget caps the total retries one request may spend across all
	// of its tile reads, so a degraded image cannot multiply request latency
	// by retries x tiles. 0 uses defaultIORetryBudget, negative is unlimited.
	IORetryBudget int
	// QuarantineAfter takes an image out of service (503 + Retry-After, with
	// background re-probe until its source reads again) after this many
	// consecutive IO-failed decodes. 0 uses defaultQuarantineAfter, negative
	// disables quarantine.
	QuarantineAfter int
	// ProbeInterval is the quarantine re-probe cadence (and the Retry-After
	// hint quarantined requests carry). 0 uses defaultProbeInterval.
	ProbeInterval time.Duration
}

// Defaults for Options zero values.
const (
	defaultCacheBytes      = 256 << 20
	defaultMaxPixels       = 64 << 20
	DefaultMaxInFlight     = 64
	DefaultIORetries       = 2
	defaultIORetryBudget   = 32
	defaultQuarantineAfter = 3
	defaultProbeInterval   = time.Second
)

// Server answers progressive image requests over HTTP:
//
//	GET /img/{id}?x0=&y0=&x1=&y1=&reduce=&layers=&format=pgm|ppm|raw
//	    Decode a window at a resolution/quality. Coordinates address the
//	    reduced grid (the pixel grid of the image at that reduce level);
//	    omitted coordinates mean the full image. The response defaults to
//	    binary PGM (P5) for grayscale streams and binary PPM (P6) for
//	    three-component (color) streams, or headerless big-endian planar
//	    samples with format=raw.
//	GET /img/{id}/info
//	    JSON geometry: size per reduce level, tile grid, layers, byte costs.
//	GET /img/{id}/stream?layers=N
//	    A valid JPEG2000 codestream truncated to the first N quality layers,
//	    sliced from the packet index without decoding — progressive refinement
//	    for clients that decode locally.
//	GET /stats
//	    JSON server and cache counters.
//
// Region pixels are assembled from per-tile decodes that pass through the
// tile cache, which holds each tile packed as the response carries it, so a
// hot viewport costs one copy of its bytes (see assembleWindow), not tier-1
// decoding and not a clamp.
type Server struct {
	store *Store
	cache *Cache[[]byte]
	opts  Options
	mux   *http.ServeMux

	pool     *core.Pool    // resident decode workers shared by every request
	decoders sync.Pool     // *jp2k.Decoder, pooled across requests
	inflight chan struct{} // admission semaphore; nil disables shedding

	// IO fault tolerance: the resolved retry count, the shared source-read
	// counters, and the quarantine machinery's lifecycle plumbing.
	ioRetries  int
	ioc        *t2.IOCounters
	done       chan struct{} // closed by Close; stops quarantine probes
	closeOnce  sync.Once
	probeWG    sync.WaitGroup // running probeLoop goroutines
	quarActive atomic.Int64   // images currently quarantined (gauge)

	// panicHook, when set (tests), observes the recovered value of every
	// handler panic after the 500 has been written.
	panicHook func(any)

	started time.Time

	// Telemetry: every server counter lives on the registry (one atomic
	// instrument each, exposed by both /stats and /metrics), the codec
	// metrics handle is shared by every pooled decoder, and the per-request
	// latency histograms split by outcome.
	reg         *telemetry.Registry
	codec       *jp2k.CodecMetrics
	requests    *telemetry.Counter
	errors      *telemetry.Counter
	tileDecodes *telemetry.Counter
	shed        *telemetry.Counter
	panics      *telemetry.Counter
	timeouts    *telemetry.Counter
	// Damage counters, moved only by resilient tile decodes.
	damagedTiles    *telemetry.Counter
	packetsLost     *telemetry.Counter
	blocksConcealed *telemetry.Counter
	// IO fault and quarantine counters.
	ioUnreadableTiles    *telemetry.Counter
	quarantines          *telemetry.Counter
	quarantineRecoveries *telemetry.Counter
	quarantinedReqs      *telemetry.Counter
	latency              [numOutcomes]*telemetry.Histogram
}

// reqOutcome classifies one region request for the latency histograms. The
// order is a severity ranking: a request touching many tiles reports the
// most severe per-tile outcome (miss > coalesced > hit), with damage,
// timeouts and shedding overriding.
type reqOutcome int

const (
	outcomeHit         reqOutcome = iota // every tile served from cache
	outcomeCoalesced                     // waited on another request's decode
	outcomeMiss                          // at least one tile decoded here
	outcomeDamaged                       // a decode concealed damage (resilient mode)
	outcomeShed                          // rejected at the admission gate (503)
	outcomeQuarantined                   // rejected because the image is quarantined (503)
	outcomeTimeout                       // server-side deadline expired (504)
	outcomeClientError                   // the request's own fault: 400, 404, 413
	outcomeError                         // any other failure
	numOutcomes
)

// outcomeNames are the /metrics label values, index-aligned with reqOutcome.
var outcomeNames = [numOutcomes]string{
	"hit", "coalesced", "miss", "damaged", "shed", "quarantined", "timeout", "client_error", "error",
}

// New returns a Server over the given store. The server owns one persistent
// worker pool shared by every request's tile decodes — concurrent requests
// multiplex onto the same resident workers instead of each fanning out its
// own goroutines; Close releases them.
func New(store *Store, opts Options) *Server {
	if opts.CacheBytes == 0 {
		opts.CacheBytes = defaultCacheBytes
	}
	if opts.TileWorkers <= 0 {
		opts.TileWorkers = 1
	}
	if opts.MaxPixels <= 0 {
		opts.MaxPixels = defaultMaxPixels
	}
	s := &Server{
		store:   store,
		cache:   newWireCache(opts.CacheBytes),
		opts:    opts,
		mux:     http.NewServeMux(),
		pool:    core.NewPool(0),
		started: time.Now(),
		ioc:     &t2.IOCounters{},
		done:    make(chan struct{}),
	}
	if opts.MaxInFlight == 0 {
		opts.MaxInFlight = DefaultMaxInFlight
	}
	if opts.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, opts.MaxInFlight)
	}
	s.opts = opts
	switch {
	case opts.IORetries < 0:
		s.ioRetries = 0
	case opts.IORetries == 0:
		s.ioRetries = DefaultIORetries
	default:
		s.ioRetries = opts.IORetries
	}
	s.initTelemetry()
	s.decoders.New = func() any {
		d := jp2k.NewDecoderWithPool(s.pool)
		d.Metrics = s.codec
		return d
	}
	s.mux.HandleFunc("GET /img/{id}", s.handleRegion)
	s.mux.HandleFunc("GET /img/{id}/info", s.handleInfo)
	s.mux.HandleFunc("GET /img/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if opts.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// initTelemetry builds the server's metric registry: request/error/damage
// counters, the outcome-split latency histograms, the codec pipeline
// histograms recorded by every pooled decoder, and read-through gauges over
// the worker pool, the tile cache and the admission semaphore. Everything
// /stats reports and /metrics exposes comes from here — there is exactly one
// copy of every counter.
func (s *Server) initTelemetry() {
	r := telemetry.NewRegistry()
	s.reg = r
	s.codec = jp2k.NewCodecMetrics(r)
	s.requests = r.Counter("pj2k_requests_total", "HTTP requests received.")
	s.errors = r.Counter("pj2k_request_errors_total", "Requests that failed or could not write their response.")
	s.tileDecodes = r.Counter("pj2k_tile_decodes_total", "Tile decodes performed (cache misses reaching the codec).")
	s.shed = r.Counter("pj2k_shed_total", "Requests shed at the admission gate (503 + Retry-After).")
	s.panics = r.Counter("pj2k_handler_panics_total", "Handler panics recovered into 500s.")
	s.timeouts = r.Counter("pj2k_timeouts_total", "Requests past the server-side deadline (504).")
	s.damagedTiles = r.Counter("pj2k_damaged_tiles_total", "Tiles decoded with concealed damage (resilient mode).")
	s.packetsLost = r.Counter("pj2k_packets_lost_total", "Packets lost to damage across resilient tile decodes.")
	s.blocksConcealed = r.Counter("pj2k_blocks_concealed_total", "Code-blocks concealed across resilient tile decodes.")
	s.ioUnreadableTiles = r.Counter("pj2k_io_unreadable_tiles_total", "Tiles concealed because their bodies could not be read (resilient mode).")
	s.quarantines = r.Counter("pj2k_quarantines_total", "Images quarantined after consecutive IO-failed decodes.")
	s.quarantineRecoveries = r.Counter("pj2k_quarantine_recoveries_total", "Quarantined images whose source probe succeeded again.")
	s.quarantinedReqs = r.Counter("pj2k_quarantined_requests_total", "Requests rejected because their image was quarantined (503).")
	r.GaugeFunc("pj2k_quarantined_images", "Images currently quarantined.", func() int64 { return s.quarActive.Load() })
	r.CounterFunc("pj2k_io_read_attempts_total", "Source read attempts issued through the resilient IO layer.",
		func() int64 { return s.ioc.Reads.Load() })
	r.CounterFunc("pj2k_io_read_retries_total", "Source reads retried after a transient IO failure.",
		func() int64 { return s.ioc.Retries.Load() })
	r.CounterFunc("pj2k_io_read_failures_total", "Source reads that failed permanently or exhausted their retries.",
		func() int64 { return s.ioc.Failures.Load() })
	r.CounterFunc("pj2k_io_read_timeouts_total", "Source reads abandoned at the per-read deadline.",
		func() int64 { return s.ioc.Timeouts.Load() })
	for i := range s.latency {
		s.latency[i] = r.HistogramWithLabels("pj2k_request_seconds",
			telemetry.Labels("outcome", outcomeNames[i]),
			"End-to-end region-request latency by outcome.")
	}
	r.GaugeFunc("pj2k_pool_workers", "Resident decode-pool worker goroutines.",
		func() int64 { return int64(s.pool.Stats().Workers) })
	r.GaugeFunc("pj2k_pool_queue_depth", "Batch shares queued on the decode pool and not yet claimed.",
		func() int64 { return int64(s.pool.Stats().QueueDepth) })
	r.GaugeFunc("pj2k_pool_in_flight", "Dispatch barriers currently executing on the decode pool.",
		func() int64 { return s.pool.Stats().InFlight })
	r.CounterFunc("pj2k_pool_dispatches_total", "Dispatch barriers completed by the decode pool.",
		func() int64 { return s.pool.Stats().Dispatches })
	r.CounterFunc("pj2k_pool_dispatch_wait_nanoseconds_total", "Cumulative wall time spent inside decode-pool dispatch barriers.",
		func() int64 { return s.pool.Stats().WaitNanos })
	r.CounterFunc("pj2k_cache_hits_total", "Tile cache hits.", func() int64 { return s.cache.Stats().Hits })
	r.CounterFunc("pj2k_cache_misses_total", "Tile cache misses.", func() int64 { return s.cache.Stats().Misses })
	r.CounterFunc("pj2k_cache_coalesced_total", "Lookups coalesced onto an in-flight decode.",
		func() int64 { return s.cache.Stats().Coalesced })
	r.CounterFunc("pj2k_cache_evictions_total", "Tile cache evictions.", func() int64 { return s.cache.Stats().Evictions })
	r.GaugeFunc("pj2k_cache_bytes", "Bytes of decoded tiles resident in the cache, in wire form (1 or 2 bytes per sample) plus per-entry overhead.", func() int64 { return s.cache.Stats().Bytes })
	r.GaugeFunc("pj2k_cache_entries", "Decoded tiles resident in the cache.", func() int64 { return int64(s.cache.Stats().Entries) })
	r.GaugeFunc("pj2k_inflight_requests", "Decode-bearing requests currently admitted.",
		func() int64 {
			if s.inflight == nil {
				return 0
			}
			return int64(len(s.inflight))
		})
	r.GaugeFunc("pj2k_images", "Images in the store.", func() int64 { return int64(s.store.Len()) })
	r.GaugeFunc("pj2k_uptime_seconds", "Seconds since the server started.",
		func() int64 { return int64(time.Since(s.started).Seconds()) })
	bi := r.GaugeWithLabels("pj2k_build_info",
		telemetry.Labels("go", runtime.Version(), "revision", buildRevision()), "Build information (constant 1).")
	bi.Set(1)
}

// buildRevision extracts the VCS revision baked into the binary, "unknown"
// when built without VCS stamping (go test, plain go run).
func buildRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				if len(kv.Value) > 12 {
					return kv.Value[:12]
				}
				return kv.Value
			}
		}
	}
	return "unknown"
}

// Close stops the quarantine probe loops, waits for them to exit, and
// releases the server's worker pool. It must only be called once no request
// is in flight (after the HTTP server has shut down) — and before
// Store.Close, so no probe ever reads a closed source.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.done)
		s.probeWG.Wait()
		s.pool.Close()
	})
}

// TileDecodes returns the number of tile decodes performed so far; requests
// served entirely from cache do not move it.
func (s *Server) TileDecodes() int64 { return s.tileDecodes.Value() }

// ServeHTTP implements http.Handler. A panicking handler is converted into a
// 500 (when the response has not started) plus a counter instead of relying
// on net/http to kill the connection — the server, its worker pool and its
// cache stay usable, and /stats shows that it happened.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	defer func() {
		if rec := recover(); rec != nil {
			s.panics.Inc()
			s.errors.Inc()
			http.Error(w, "internal error", http.StatusInternalServerError)
			if s.panicHook != nil {
				s.panicHook(rec)
			}
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// admit reserves an admission slot, reporting false when the server is at
// capacity (the caller sheds the request). release must be called for every
// successful admit.
func (s *Server) admit() bool {
	if s.inflight == nil {
		return true
	}
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Server) release() {
	if s.inflight != nil {
		<-s.inflight
	}
}

// shedRequest answers an over-capacity request: 503 with a Retry-After hint,
// counted separately from ordinary errors.
func (s *Server) shedRequest(w http.ResponseWriter) {
	s.shed.Inc()
	w.Header().Set("Retry-After", "1")
	s.fail(w, http.StatusServiceUnavailable, "server at capacity; retry shortly")
}

// requestCtx derives the work-bounding context of one request: the client's
// (cancelled on disconnect) plus the server-side deadline when configured.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.Timeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.Timeout)
	}
	return r.Context(), func() {}
}

// failCtx maps a context-ended decode to its status: 504 for the server-side
// deadline, 503 for a client that went away (nobody reads the body either
// way). It returns the request outcome for the latency histograms.
func (s *Server) failCtx(w http.ResponseWriter, err error) reqOutcome {
	if errors.Is(err, context.DeadlineExceeded) {
		s.timeouts.Inc()
		s.fail(w, http.StatusGatewayTimeout, "deadline exceeded: %v", err)
		return outcomeTimeout
	}
	s.fail(w, http.StatusServiceUnavailable, "request cancelled: %v", err)
	return outcomeError
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.errors.Inc()
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// infoResponse is the /img/{id}/info payload.
type infoResponse struct {
	ID          string     `json:"id"`
	Width       int        `json:"width"`
	Height      int        `json:"height"`
	TileW       int        `json:"tile_w"`
	TileH       int        `json:"tile_h"`
	Tiles       int        `json:"tiles"`
	Components  int        `json:"components"`
	MCT         bool       `json:"mct"`
	Levels      int        `json:"levels"`
	Layers      int        `json:"layers"`
	BitDepth    int        `json:"bit_depth"`
	Kernel      string     `json:"kernel"`
	Bytes       int        `json:"bytes"`
	PacketBytes int        `json:"packet_bytes"`
	Reductions  []sizeInfo `json:"reductions"`
}

type sizeInfo struct {
	Reduce int `json:"reduce"`
	Width  int `json:"width"`
	Height int `json:"height"`
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	// A cold /info reads every tile body to build the packet maps, so it
	// takes an admission slot like /img and /stream.
	if !s.admit() {
		s.shedRequest(w)
		return
	}
	defer s.release()
	img, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown image %q", r.PathValue("id"))
		return
	}
	// Info forces every tile's packet map (RegionBytes over the tile grid) — reads
	// every tile body once — so a quarantined source is rejected here too.
	if s.isQuarantined(img) {
		s.rejectQuarantined(w, img.ID)
		return
	}
	p := img.Params()
	ntx, nty := p.NumTiles()
	// A tile that cannot be indexed is a 500, as on /stream, not a 200 with
	// a short packet_bytes.
	packetBytes, err := img.Index.RegionBytes(0, 0, ntx, nty, 0, 0)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "%v", err)
		return
	}
	kernel := "9x7"
	if p.Kernel == dwt.Rev53 {
		kernel = "5x3"
	}
	info := infoResponse{
		ID: img.ID, Width: p.Width, Height: p.Height,
		TileW: p.TileW, TileH: p.TileH, Tiles: img.Index.NumTiles(),
		Components: p.Components(), MCT: p.MCT,
		Levels: p.Levels, Layers: p.Layers, BitDepth: p.BitDepth,
		Kernel: kernel, Bytes: int(img.Size()), PacketBytes: packetBytes,
	}
	for d := 0; d <= p.Levels; d++ {
		colW, rowH := img.Grid(d)
		info.Reductions = append(info.Reductions, sizeInfo{
			Reduce: d, Width: colW[len(colW)-1], Height: rowH[len(rowH)-1],
		})
	}
	s.writeJSON(w, info)
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if !s.admit() {
		s.shedRequest(w)
		return
	}
	defer s.release()
	img, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown image %q", r.PathValue("id"))
		return
	}
	if s.isQuarantined(img) {
		s.rejectQuarantined(w, img.ID)
		return
	}
	layers, err := queryInt(r.URL.RawQuery, "layers", 0)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	layers = img.clampLayers(layers)
	// Content-Length comes from the packet maps: PrefixSize forces every
	// tile's map, so a tile that cannot be indexed is a 500 here instead of a
	// 200 cut short.
	n, err := img.Index.PrefixSize(layers)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "%v", err)
		return
	}
	h := w.Header() // canonical keys, assigned without Set's canonicalisation
	h["Content-Type"] = []string{"application/octet-stream"}
	h["X-Pj2k-Layers"] = []string{strconv.Itoa(layers)}
	h["Content-Length"] = []string{strconv.FormatInt(n, 10)}
	// WritePrefix streams the truncated codestream straight to the response,
	// reading each tile's prefix from the source as it goes. A failure now is
	// a failed write or read: the status line is already gone, so counting is
	// all that's left to do. net/http closes the connection when fewer bytes
	// than Content-Length went out, so the client sees the truncation.
	if _, err := img.Index.WritePrefix(w, layers); err != nil {
		s.errors.Inc()
	}
}

// handleHealthz is liveness: the process answers requests at all.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 503 while the admission semaphore is full, so a
// load balancer routes around a saturated instance before requests get shed.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.inflight != nil && len(s.inflight) >= cap(s.inflight) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "at capacity", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// statsResponse is the /stats payload: the raw counters plus the percentile
// digests of the latency histograms /metrics exposes as buckets, uptime and
// build identity.
type statsResponse struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	GoVersion     string       `json:"go_version"`
	Revision      string       `json:"revision"`
	Images        int          `json:"images"`
	Requests      int64        `json:"requests"`
	Errors        int64        `json:"errors"`
	TileDecodes   int64        `json:"tile_decodes"`
	Shed          int64        `json:"shed"`
	Panics        int64        `json:"panics"`
	Timeouts      int64        `json:"timeouts"`
	InFlight      int          `json:"in_flight"`
	MaxInFlight   int          `json:"max_in_flight"`
	Resilient     bool         `json:"resilient"`
	Damage        damageCounts `json:"damage"`
	IO            ioCounts     `json:"io"`
	Quarantine    quarCounts   `json:"quarantine"`
	Cache         CacheStats   `json:"cache"`

	// RequestLatency digests the per-outcome end-to-end region-request
	// histograms (p50/p90/p99 in milliseconds); outcomes with no requests
	// yet are omitted.
	RequestLatency map[string]telemetry.LatencySummary `json:"request_latency"`
	// DecodeStages digests the codec's per-stage decode histograms — where
	// tile-decode time went (parse/t2/t1/idwt/intercomp).
	DecodeStages map[string]telemetry.LatencySummary `json:"decode_stage_latency"`
	Pool         poolStatsJSON                       `json:"pool"`
}

// poolStatsJSON is the /stats view of core.PoolStats.
type poolStatsJSON struct {
	Workers        int     `json:"workers"`
	QueueDepth     int     `json:"queue_depth"`
	InFlight       int64   `json:"in_flight"`
	Dispatches     int64   `json:"dispatches"`
	DispatchWaitMS float64 `json:"dispatch_wait_ms"`
}

// damageCounts aggregates what resilient tile decodes had to conceal.
type damageCounts struct {
	DamagedTiles      int64 `json:"damaged_tiles"`
	PacketsLost       int64 `json:"packets_lost"`
	BlocksConcealed   int64 `json:"blocks_concealed"`
	IOUnreadableTiles int64 `json:"io_unreadable_tiles"`
}

// ioCounts is the /stats view of the resilient source-read layer.
type ioCounts struct {
	ReadAttempts int64 `json:"read_attempts"`
	ReadRetries  int64 `json:"read_retries"`
	ReadFailures int64 `json:"read_failures"`
	ReadTimeouts int64 `json:"read_timeouts"`
}

// quarCounts is the /stats view of the image quarantine lifecycle.
type quarCounts struct {
	Active           int64 `json:"active"`
	Total            int64 `json:"total"`
	Recoveries       int64 `json:"recoveries"`
	RejectedRequests int64 `json:"rejected_requests"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	inflight, maxInflight := 0, 0
	if s.inflight != nil {
		inflight, maxInflight = len(s.inflight), cap(s.inflight)
	}
	lat := make(map[string]telemetry.LatencySummary, numOutcomes)
	for i, h := range s.latency {
		if sum := telemetry.Summary(h); sum.Count > 0 {
			lat[outcomeNames[i]] = sum
		}
	}
	stages := make(map[string]telemetry.LatencySummary, jp2k.NumDecStages)
	for i, name := range jp2k.DecStageNames {
		if sum := telemetry.Summary(s.codec.DecodeStages[i]); sum.Count > 0 {
			stages[name] = sum
		}
	}
	ps := s.pool.Stats()
	s.writeJSON(w, statsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		GoVersion:     runtime.Version(),
		Revision:      buildRevision(),
		Images:        s.store.Len(),
		Requests:      s.requests.Value(),
		Errors:        s.errors.Value(),
		TileDecodes:   s.TileDecodes(),
		Shed:          s.shed.Value(),
		Panics:        s.panics.Value(),
		Timeouts:      s.timeouts.Value(),
		InFlight:      inflight,
		MaxInFlight:   maxInflight,
		Resilient:     s.opts.Resilient,
		Damage: damageCounts{
			DamagedTiles:      s.damagedTiles.Value(),
			PacketsLost:       s.packetsLost.Value(),
			BlocksConcealed:   s.blocksConcealed.Value(),
			IOUnreadableTiles: s.ioUnreadableTiles.Value(),
		},
		IO: ioCounts{
			ReadAttempts: s.ioc.Reads.Load(),
			ReadRetries:  s.ioc.Retries.Load(),
			ReadFailures: s.ioc.Failures.Load(),
			ReadTimeouts: s.ioc.Timeouts.Load(),
		},
		Quarantine: quarCounts{
			Active:           s.quarActive.Load(),
			Total:            s.quarantines.Value(),
			Recoveries:       s.quarantineRecoveries.Value(),
			RejectedRequests: s.quarantinedReqs.Value(),
		},
		Cache:          s.cache.Stats(),
		RequestLatency: lat,
		DecodeStages:   stages,
		Pool: poolStatsJSON{
			Workers:        ps.Workers,
			QueueDepth:     ps.QueueDepth,
			InFlight:       ps.InFlight,
			Dispatches:     ps.Dispatches,
			DispatchWaitMS: float64(ps.WaitNanos) / 1e6,
		},
	})
}

// handleMetrics serves the registry in the Prometheus text exposition format
// — the scrape endpoint. No client library involved: the format is emitted
// directly (see telemetry.WritePrometheus).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.errors.Inc()
	}
}

// writeJSON emits a JSON body, counting encode/write failures (a client that
// disconnected mid-response) so /stats stays truthful — the PGM/PPM paths
// already count their write errors; the JSON and raw paths must too.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.errors.Inc()
	}
}
