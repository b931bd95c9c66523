package jp2k

import "pj2k/internal/telemetry"

// The stage tables, declared once: every reader of stage times — CodecMetrics,
// Breakdown, Profile, the experiments and the examples — loops over them.
// EncStageNames and DecStageNames are the stage label values in the order of
// StageTimings.Spans and DecodeTimings.Spans (the paper's Fig. 1 pipeline);
// EncStageParallel and DecStageParallel are the paper's Sec. 3.4 split, true
// for a stage its parallelization covers and false for the serial tail that
// bounds the speedup by Amdahl's law.
var (
	EncStageNames    = [...]string{"setup", "intercomp", "dwt", "quant", "t1", "rate", "t2", "io"}
	EncStageParallel = [NumEncStages]bool{false, true, true, true, true, false, false, false}
	DecStageNames    = [...]string{"parse", "t2", "t1", "idwt", "intercomp"}
	DecStageParallel = [NumDecStages]bool{false, false, true, true, true}
)

// NumEncStages and NumDecStages are the stage counts.
const (
	NumEncStages = len(EncStageNames)
	NumDecStages = len(DecStageNames)
)

// CodecMetrics is the telemetry view of the codec pipeline: end-to-end and
// per-stage latency histograms plus byte/operation counters, shared by every
// Encoder/Decoder pointed at it. Recording happens once per encode/decode
// call (never per sample or per block), so the instrumentation cost is a
// handful of atomic adds per image — invisible next to the work it measures.
// A nil *CodecMetrics disables recording entirely.
type CodecMetrics struct {
	Encodes      *telemetry.Counter // completed encode calls
	Decodes      *telemetry.Counter // completed decode calls
	BytesEncoded *telemetry.Counter // codestream bytes produced
	BytesDecoded *telemetry.Counter // codestream bytes consumed

	// Tier-1 encode work (useful outcomes over attempts, DESIGN.md §8): the
	// passes full coding would run, the passes actually run, the passes the
	// final layer keeps, and the stopped blocks that had to be coded again.
	T1PassesPossible *telemetry.Counter
	T1PassesCoded    *telemetry.Counter
	T1PassesKept     *telemetry.Counter
	T1BlocksRecoded  *telemetry.Counter

	EncodeSeconds *telemetry.Histogram // encode latency: the stage spans' sum
	DecodeSeconds *telemetry.Histogram // decode latency: the stage spans' sum

	EncodeStages [NumEncStages]*telemetry.Histogram
	DecodeStages [NumDecStages]*telemetry.Histogram
}

// NewCodecMetrics registers the codec metric families on r and returns the
// recording handle:
//
//	pj2k_codec_encodes_total / pj2k_codec_decodes_total
//	pj2k_codec_encoded_bytes_total / pj2k_codec_decoded_bytes_total
//	pj2k_codec_t1_passes_{possible,coded,kept}_total / pj2k_codec_t1_blocks_recoded_total
//	pj2k_encode_seconds / pj2k_decode_seconds
//	pj2k_encode_stage_seconds{stage=...} / pj2k_decode_stage_seconds{stage=...}
func NewCodecMetrics(r *telemetry.Registry) *CodecMetrics {
	m := &CodecMetrics{
		Encodes:          r.Counter("pj2k_codec_encodes_total", "Completed encode calls."),
		Decodes:          r.Counter("pj2k_codec_decodes_total", "Completed decode calls."),
		BytesEncoded:     r.Counter("pj2k_codec_encoded_bytes_total", "Codestream bytes produced by encodes."),
		BytesDecoded:     r.Counter("pj2k_codec_decoded_bytes_total", "Tile-part body bytes of the tiles decodes selected."),
		T1PassesPossible: r.Counter("pj2k_codec_t1_passes_possible_total", "Tier-1 coding passes full coding of every block would run."),
		T1PassesCoded:    r.Counter("pj2k_codec_t1_passes_coded_total", "Tier-1 coding passes run, pilot and re-codes included."),
		T1PassesKept:     r.Counter("pj2k_codec_t1_passes_kept_total", "Tier-1 coding passes the final quality layer includes."),
		T1BlocksRecoded:  r.Counter("pj2k_codec_t1_blocks_recoded_total", "Early-stopped code-blocks coded again in full after the post-check."),
		EncodeSeconds:    r.Histogram("pj2k_encode_seconds", "Encode latency, summed over the disjoint stage spans."),
		DecodeSeconds:    r.Histogram("pj2k_decode_seconds", "Decode latency, summed over the disjoint stage spans."),
	}
	for i, name := range EncStageNames {
		m.EncodeStages[i] = r.HistogramWithLabels("pj2k_encode_stage_seconds",
			telemetry.Labels("stage", name), "Per-stage encode pipeline time.")
	}
	for i, name := range DecStageNames {
		m.DecodeStages[i] = r.HistogramWithLabels("pj2k_decode_stage_seconds",
			telemetry.Labels("stage", name), "Per-stage decode pipeline time.")
	}
	return m
}

// recordEncode folds one successful encode into the metrics. Safe on a nil
// receiver (recording disabled).
func (m *CodecMetrics) recordEncode(st *EncodeStats) {
	if m == nil {
		return
	}
	m.Encodes.Inc()
	m.BytesEncoded.Add(int64(st.Bytes))
	m.T1PassesPossible.Add(int64(st.PassesPossible))
	m.T1PassesCoded.Add(int64(st.PassesCoded))
	m.T1PassesKept.Add(int64(st.PassesKept))
	m.T1BlocksRecoded.Add(int64(st.BlocksRecoded))
	m.EncodeSeconds.Observe(st.Timings.Total())
	for i, d := range st.Timings.Spans() {
		m.EncodeStages[i].Observe(d)
	}
}

// recordDecode folds one successful decode into the metrics. Safe on a nil
// receiver (recording disabled).
func (m *CodecMetrics) recordDecode(st *DecodeStats) {
	if m == nil {
		return
	}
	m.Decodes.Inc()
	m.BytesDecoded.Add(int64(st.BytesIn))
	m.DecodeSeconds.Observe(st.Timings.Total())
	for i, d := range st.Timings.Spans() {
		m.DecodeStages[i].Observe(d)
	}
}
