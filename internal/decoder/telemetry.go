package decoder

import (
	"time"

	"repro/internal/telemetry"
)

// Telemetry is the decoder's instrument set: continuous observability for
// the quantities the paper evaluates once per experiment (offset-table hit
// rates, back-off walk lengths, pruned-vs-expanded hypotheses — Figs.
// 8–13). One Telemetry is shared by every decoder that should report into
// the same registry (all of a pool's workers, every server stream); the
// instruments are atomics, so concurrent decoders update them directly.
//
// A nil *Telemetry disables publication entirely: the hot path pays one
// nil check per hook and performs no other telemetry work, which is how
// the zero-allocation gates in alloc_test.go keep reporting 0 allocs with
// telemetry off. Hooks publish Stats *deltas* — the search already counts
// its work in Stats for free, so the frame loop never touches an atomic
// per arc, only once per Push or Feed call (streams) or per decode
// (batch), plus one frontier-size observation per frame.
type Telemetry struct {
	// Decodes counts completed batch decodes; Streams counts completed
	// stream lifecycles (NewStream..Finish).
	Decodes *telemetry.Counter
	Streams *telemetry.Counter
	// Frames counts decoded frames across all decoders sharing this set.
	Frames *telemetry.Counter
	// FrontierTokens is the per-frame active-token distribution — the live
	// view of the search's working-set size.
	FrontierTokens *telemetry.Histogram
	// DecodeSeconds is the per-utterance wall-time distribution.
	DecodeSeconds *telemetry.Histogram

	// Search work counters, mirroring Stats field for field.
	TokensExpanded   *telemetry.Counter
	TokensCreated    *telemetry.Counter
	TokensBeamCut    *telemetry.Counter
	ArcsTraversed    *telemetry.Counter
	EpsTraversed     *telemetry.Counter
	LMFetches        *telemetry.Counter
	LMProbes         *telemetry.Counter
	BackoffHops      *telemetry.Counter
	MemoHits         *telemetry.Counter
	MemoMisses       *telemetry.Counter
	PreemptivePruned *telemetry.Counter
	Rescues          *telemetry.Counter
	SearchFailures   *telemetry.Counter
	LatticeEntries   *telemetry.Counter

	// Tracer, when non-nil, records one span per decode or stream with the
	// headline counters as attributes.
	Tracer *telemetry.Tracer
}

// NewTelemetry registers the decoder instrument family in reg and returns
// the set. A nil registry yields a fully inert (but non-nil) set; callers
// that want the hot path to skip hooks entirely should keep Telemetry nil
// instead.
func NewTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) *Telemetry {
	return &Telemetry{
		Decodes:        reg.Counter("unfold_decoder_decodes_total", "Completed batch decodes."),
		Streams:        reg.Counter("unfold_decoder_streams_total", "Completed streaming decodes."),
		Frames:         reg.Counter("unfold_decoder_frames_total", "Decoded acoustic frames."),
		FrontierTokens: reg.Histogram("unfold_decoder_frontier_tokens", "Active tokens per decoded frame.", telemetry.ExpBuckets(8, 2, 11)),
		DecodeSeconds:  reg.Histogram("unfold_decoder_decode_seconds", "Wall time per utterance decode.", telemetry.ExpBuckets(0.0005, 4, 10)),

		TokensExpanded:   reg.Counter("unfold_decoder_tokens_expanded_total", "Tokens alive at frame starts."),
		TokensCreated:    reg.Counter("unfold_decoder_tokens_created_total", "Distinct tokens materialized."),
		TokensBeamCut:    reg.Counter("unfold_decoder_tokens_beam_cut_total", "Tokens dropped by beam/histogram pruning."),
		ArcsTraversed:    reg.Counter("unfold_decoder_arcs_traversed_total", "Emitting arcs evaluated."),
		EpsTraversed:     reg.Counter("unfold_decoder_eps_traversed_total", "Non-emitting arcs evaluated."),
		LMFetches:        reg.Counter("unfold_decoder_lm_fetches_total", "Cross-word LM resolutions."),
		LMProbes:         reg.Counter("unfold_decoder_lm_probes_total", "LM arc-search probes."),
		BackoffHops:      reg.Counter("unfold_decoder_backoff_hops_total", "Back-off arcs walked during LM resolution."),
		MemoHits:         reg.Counter("unfold_decoder_memo_hits_total", "Offset-table hits."),
		MemoMisses:       reg.Counter("unfold_decoder_memo_misses_total", "Offset-table misses."),
		PreemptivePruned: reg.Counter("unfold_decoder_preemptive_pruned_total", "Hypotheses abandoned mid back-off walk."),
		Rescues:          reg.Counter("unfold_decoder_rescues_total", "Beam widenings by search-failure rescue."),
		SearchFailures:   reg.Counter("unfold_decoder_search_failures_total", "Frames whose active set emptied for good."),
		LatticeEntries:   reg.Counter("unfold_decoder_lattice_entries_total", "Word-lattice records written."),

		Tracer: tracer,
	}
}

// observeFrontier records one frame's post-closure active-token count.
func (t *Telemetry) observeFrontier(tokens int) {
	if t == nil {
		return
	}
	t.FrontierTokens.Observe(float64(tokens))
}

// publishDelta adds the counter advance from prev to cur — the incremental
// publication streams perform per Push or Feed call so a scrape
// mid-utterance sees the work done so far, not just completed decodes.
func (t *Telemetry) publishDelta(cur, prev Stats) {
	if t == nil {
		return
	}
	t.Frames.Add(int64(cur.Frames - prev.Frames))
	t.TokensExpanded.Add(cur.TokensExpanded - prev.TokensExpanded)
	t.TokensCreated.Add(cur.TokensCreated - prev.TokensCreated)
	t.TokensBeamCut.Add(cur.TokensBeamCut - prev.TokensBeamCut)
	t.ArcsTraversed.Add(cur.ArcsTraversed - prev.ArcsTraversed)
	t.EpsTraversed.Add(cur.EpsTraversed - prev.EpsTraversed)
	t.LMFetches.Add(cur.LMFetches - prev.LMFetches)
	t.LMProbes.Add(cur.LMProbes - prev.LMProbes)
	t.BackoffHops.Add(cur.BackoffHops - prev.BackoffHops)
	t.MemoHits.Add(cur.MemoHits - prev.MemoHits)
	t.MemoMisses.Add(cur.MemoMisses - prev.MemoMisses)
	t.PreemptivePruned.Add(cur.PreemptivePruned - prev.PreemptivePruned)
	t.Rescues.Add(cur.Rescues - prev.Rescues)
	t.SearchFailures.Add(cur.SearchFailures - prev.SearchFailures)
	t.LatticeEntries.Add(cur.LatticeEntries - prev.LatticeEntries)
}

// startSpan opens a per-decode span when tracing is enabled; the returned
// span is inert otherwise.
func (t *Telemetry) startSpan(name string) telemetry.Span {
	if t == nil {
		return telemetry.Span{}
	}
	return t.Tracer.Start(name)
}

// recordDecode publishes one completed batch decode: its whole Stats, the
// wall time and the span.
func (t *Telemetry) recordDecode(st Stats, start time.Time, sp telemetry.Span) {
	if t != nil {
		t.Decodes.Inc()
		t.record(st, Stats{}, start, sp)
	}
}

// recordStream publishes a completed stream lifecycle: the Stats advance
// its Push and Feed calls have not published (the lattice entries, which
// Finish counts), the wall time and the span.
func (t *Telemetry) recordStream(st, published Stats, start time.Time, sp telemetry.Span) {
	if t != nil {
		t.Streams.Inc()
		t.record(st, published, start, sp)
	}
}

func (t *Telemetry) record(st, published Stats, start time.Time, sp telemetry.Span) {
	t.publishDelta(st, published)
	t.DecodeSeconds.Observe(time.Since(start).Seconds())
	if sp.Active() {
		sp.End(
			telemetry.A("frames", int64(st.Frames)),
			telemetry.A("tokens_created", st.TokensCreated),
			telemetry.A("lm_fetches", st.LMFetches),
			telemetry.A("backoff_hops", st.BackoffHops),
			telemetry.A("rescues", st.Rescues),
			telemetry.A("search_failures", st.SearchFailures),
		)
	}
}

// now returns the wall clock only when publication is enabled, so disabled
// telemetry never reads the clock on the decode path.
func (t *Telemetry) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}
