package main

import "time"

// spec.go is the benchmark's contract: workload names, metric names with
// their units and regression bounds, and every fixed parameter a later issue
// may cite. BENCHMARK.json at the repository root mirrors the three tables
// (spec_test.go fails when they drift apart). The driver's schema leaves no
// room there for rate_rps, the latency limits or the recorded WER values, so
// they live here and in the workloads' "why" strings.

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	searchWide = "search_wide"
	scoreDense = "score_dense"
	serveMixed = "serve_mixed"
)

var workloadDefs = []workloadDef{
	{searchWide, "big-gmm at beam 85 (~1100 live tokens/frame): Viterbi search is over 90% of wall time, so LM fetch, back-off, offset-table, prune and arc-format work shows here and only here"},
	{scoreDense, "big-dnn at the default beam (~12 tokens/frame) through System.Recognize: DNN scoring is over 95% of wall time, so kernel, lane and score-ahead work shows; search work must not move it"},
	{serveMixed, "in-process server on loopback TCP, 50% /v1/stream + 50% /v1/recognize, every 4th request biased: open loop at 100 rps (limit 50 ms) then closed loop; the only client-side view"},
}

// End-to-end metrics, reported by every workload with -trace 0. The timed
// bounds are the widest the driver allows: the 2-core reference VM shares
// its host, and a bound has to sit at three times the run-to-run quartile
// spread measured on a quiet day (2-7%; README.md lists it per workload) to
// hold on a busy one. Deterministic metrics are exact up to 0.1%.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"frames_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"slo_met_ratio", "ratio", "higher", 0.05},
	{"word_accuracy_pct", "%", "higher", 0.001},
	{"model_resident_bytes", "bytes", "lower", 0.001},
	{"heap_live_bytes", "bytes", "lower", 0.05},
}

// Per-layer metrics, reported with -trace 1. The prefix is the module. A
// layer the workload does not drive reports 0 (server.* and bias.* off
// serve_mixed).
var perLayerDefs = []metricDef{
	{Name: "task.build_s", Unit: "s", Better: "lower"},
	{Name: "task.vocab", Unit: "count", Better: "higher"},
	{Name: "task.test_utterances", Unit: "count", Better: "higher"},
	{Name: "task.test_frames", Unit: "count", Better: "higher"},

	{Name: "wfst.am_states", Unit: "count", Better: "lower"},
	{Name: "wfst.am_arcs", Unit: "count", Better: "lower"},
	{Name: "wfst.lm_states", Unit: "count", Better: "lower"},
	{Name: "wfst.lm_arcs", Unit: "count", Better: "lower"},
	{Name: "wfst.csr_bytes", Unit: "bytes", Better: "lower"},

	{Name: "compress.packed_bytes", Unit: "bytes", Better: "lower"},
	{Name: "compress.ratio", Unit: "ratio", Better: "higher"},

	{Name: "flatstore.save_s", Unit: "s", Better: "lower"},
	{Name: "flatstore.bundle_bytes", Unit: "bytes", Better: "lower"},
	{Name: "flatstore.load_fast_ms", Unit: "ms", Better: "lower"},
	{Name: "flatstore.load_verify_ms", Unit: "ms", Better: "lower"},
	{Name: "flatstore.cold_first_ms", Unit: "ms", Better: "lower"},
	{Name: "flatstore.mapped", Unit: "count", Better: "higher"},

	{Name: "acoustic.score_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "acoustic.time_share", Unit: "ratio", Better: "lower"},

	{Name: "decoder.search_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "decoder.time_share", Unit: "ratio", Better: "lower"},
	{Name: "decoder.tokens_per_frame", Unit: "count", Better: "lower"},
	{Name: "decoder.tokens_created_per_frame", Unit: "count", Better: "lower"},
	{Name: "decoder.beam_cut_ratio", Unit: "ratio", Better: "higher"},
	{Name: "decoder.arcs_per_frame", Unit: "count", Better: "lower"},
	{Name: "decoder.eps_per_frame", Unit: "count", Better: "lower"},
	{Name: "decoder.lm_fetches_per_frame", Unit: "count", Better: "lower"},
	{Name: "decoder.lm_probes_per_fetch", Unit: "count", Better: "lower"},
	{Name: "decoder.backoff_hops_per_fetch", Unit: "count", Better: "lower"},
	{Name: "decoder.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "decoder.preemptive_pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "decoder.lattice_entries_per_frame", Unit: "count", Better: "lower"},
	{Name: "decoder.rescues", Unit: "count", Better: "lower"},
	{Name: "decoder.search_failures", Unit: "count", Better: "lower"},
	{Name: "decoder.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "decoder.alloc_bytes_per_frame", Unit: "bytes", Better: "lower"},
	{Name: "decoder.stream_push_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "decoder.partial_us", Unit: "us", Better: "lower"},
	{Name: "decoder.first_utt_penalty", Unit: "ratio", Better: "lower"},

	{Name: "pool.batch_frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "pool.scaling_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "pool.l2_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "server.first_partial_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.first_partial_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "server.overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.request_bytes_per_frame", Unit: "bytes", Better: "lower"},
	{Name: "server.recognize_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "server.stream_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "server.shed_total", Unit: "count", Better: "lower"},
	{Name: "server.degraded_total", Unit: "count", Better: "lower"},
	{Name: "server.errors_total", Unit: "count", Better: "lower"},
	{Name: "server.partials_dropped_total", Unit: "count", Better: "lower"},
	{Name: "server.stream_stalls_total", Unit: "count", Better: "lower"},

	{Name: "bias.requests_total", Unit: "count", Better: "higher"},
	{Name: "bias.compile_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "bench.sent", Unit: "count", Better: "higher"},
	{Name: "bench.gen_late_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.failed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.span_sum_ratio", Unit: "ratio", Better: "higher"},
}

// wideBeam is search_wide's one override of the defaults: the beam at which
// big-gmm carries 1 000-3 000 live tokens per frame (1 121 at 85).
const wideBeam = 85

// Serve-workload traffic constants. rateRPS is about half of the closed-loop
// capacity measured on the reference box (2 cores: ~45 000 frames/s, i.e.
// ~200 requests/s of ~228 frames).
const (
	rateRPS     = 100.0
	streamChunk = 25 // frames per NDJSON line on /v1/stream
	biasEvery   = 4  // every fourth request carries a bias block
	biasTenants = 8
	biasPhrases = 4 // phrases per tenant, drawn from the reference words
	// phaseAShare of -seconds is the open loop; the rest is the closed loop.
	phaseAShare = 0.6
	// An open-loop attempt is invalid when the p90 of the generator's
	// lateness exceeds maxLateShare of latency_p50_ms; the phase is run at
	// most openLoopAttempts times.
	maxLateShare     = 0.1
	openLoopAttempts = 3
)

// modelSpec is the benchmark's own description of a synthetic task;
// layers.go turns it into the repository's task spec.
type modelSpec struct {
	Name           string
	DNN            bool // DNN scorer instead of the GMM default
	Vocab          int
	Phones         int
	TrainSentences int
	TestUtterances int
	MaxSentenceLen int
	GrammarBranch  int
	LMMinCount     int
	NoiseStd       float64
	Seed           int64
}

// fixtureKind is one deterministic model plus its test pool. The model seed
// is fixed: the model is the deployed artifact, and -seed drives the
// traffic (utterance order, request schedule, routes, tenants) instead, so
// wer_pct and model_resident_bytes repeat exactly across seeds.
type fixtureKind struct {
	name string
	spec modelSpec
	// Test utterances outside [minFrames, maxFrames] are skipped and the
	// first poolSize that fit are kept, so "~2 s each" holds per utterance
	// and p90 latency is not set by a handful of outliers.
	minFrames, maxFrames, poolSize int
	// wer is the recorded word error rate (100 - word_accuracy_pct) per
	// workload; a run that lands elsewhere fails the correctness gate. A
	// workload without an entry is not gated.
	wer map[string]float64
	// sloLimit is the fixed per-operation latency limit behind
	// slo_met_ratio.
	sloLimit map[string]time.Duration
}

// bigSpec is the realistic-scale task: a 60 k-word vocabulary and a trigram
// LM pruned at count 2, 34 MiB of AM+LM CSR arrays (8x a core's L2 here).
func bigSpec(dnn bool) modelSpec {
	s := modelSpec{
		Name:           "big-gmm",
		DNN:            dnn,
		Vocab:          60000,
		Phones:         40,
		TrainSentences: 300000,
		TestUtterances: 256,
		MaxSentenceLen: 10,
		GrammarBranch:  4,
		LMMinCount:     2,
		NoiseStd:       2.1,
		Seed:           20170817,
	}
	if dnn {
		s.Name = "big-dnn"
	}
	return s
}

var bigGMM = fixtureKind{
	name: "big-gmm", spec: bigSpec(false),
	minFrames: 150, maxFrames: 300, poolSize: 64,
	// The wide beam decodes all 331 reference words; the default beam makes
	// search errors, and the server's default differs from Recognize's in
	// three transcripts (see serveMixed).
	wer: map[string]float64{searchWide: 0, serveMixed: 16.3142},
	sloLimit: map[string]time.Duration{
		searchWide: 400 * time.Millisecond,
		serveMixed: 50 * time.Millisecond,
	},
}

var bigDNN = fixtureKind{
	name: "big-dnn", spec: bigSpec(true),
	minFrames: 150, maxFrames: 300, poolSize: 64,
	wer:      map[string]float64{scoreDense: 19.8777},
	sloLimit: map[string]time.Duration{scoreDense: 150 * time.Millisecond},
}

// smokeKind is the 40-word CI fixture (the one bench_test.go uses). It is
// only reached through -smoke and the unit tests.
func smokeKind(dnn bool) fixtureKind {
	s := modelSpec{
		Name:           "smoke-gmm",
		DNN:            dnn,
		Vocab:          40,
		Phones:         14,
		TrainSentences: 300,
		TestUtterances: 12,
		LMMinCount:     2,
		Seed:           2024,
	}
	if dnn {
		s.Name = "smoke-dnn"
	}
	const limit = time.Second
	return fixtureKind{
		name: s.Name, spec: s, minFrames: 1, maxFrames: 1 << 20, poolSize: 8,
		sloLimit: map[string]time.Duration{searchWide: limit, scoreDense: limit, serveMixed: limit},
	}
}

// kindFor picks the fixture a workload runs on.
func kindFor(workload string, smoke bool) fixtureKind {
	dnn := workload == scoreDense
	switch {
	case smoke:
		return smokeKind(dnn)
	case dnn:
		return bigDNN
	default:
		return bigGMM
	}
}
