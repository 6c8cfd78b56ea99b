package decoder

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestTelemetryPublishesDecode checks that a batch decode with telemetry
// enabled publishes the full Stats advance — every counter the registry
// exposes must agree with the Result's own Stats.
func TestTelemetryPublishesDecode(t *testing.T) {
	f := getFixture(t, 42)
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(8)
	tel := NewTelemetry(reg, tracer)
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: true, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	var want Stats
	for _, sc := range f.scores {
		res := d.Decode(sc)
		want.Add(res.Stats)
	}
	if got := tel.Decodes.Value(); got != int64(len(f.scores)) {
		t.Errorf("decodes counter = %d, want %d", got, len(f.scores))
	}
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"frames", tel.Frames.Value(), int64(want.Frames)},
		{"tokens_expanded", tel.TokensExpanded.Value(), want.TokensExpanded},
		{"tokens_created", tel.TokensCreated.Value(), want.TokensCreated},
		{"tokens_beam_cut", tel.TokensBeamCut.Value(), want.TokensBeamCut},
		{"arcs", tel.ArcsTraversed.Value(), want.ArcsTraversed},
		{"eps", tel.EpsTraversed.Value(), want.EpsTraversed},
		{"lm_fetches", tel.LMFetches.Value(), want.LMFetches},
		{"lm_probes", tel.LMProbes.Value(), want.LMProbes},
		{"backoff_hops", tel.BackoffHops.Value(), want.BackoffHops},
		{"memo_hits", tel.MemoHits.Value(), want.MemoHits},
		{"memo_misses", tel.MemoMisses.Value(), want.MemoMisses},
		{"preemptive", tel.PreemptivePruned.Value(), want.PreemptivePruned},
		{"lattice", tel.LatticeEntries.Value(), want.LatticeEntries},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("counter %s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if tel.FrontierTokens.Count() != int64(want.Frames) {
		t.Errorf("frontier observations = %d, want one per frame = %d",
			tel.FrontierTokens.Count(), want.Frames)
	}
	if got := int(tracer.Total()); got != len(f.scores) {
		t.Errorf("tracer recorded %d spans, want %d", got, len(f.scores))
	}
	var sb strings.Builder
	reg.WriteTo(&sb)
	for _, name := range []string{
		"unfold_decoder_frames_total",
		"unfold_decoder_backoff_hops_total",
		"unfold_decoder_frontier_tokens_bucket",
		"unfold_decoder_decode_seconds_count",
	} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("exposition missing %s", name)
		}
	}
}

// TestTelemetryDoesNotChangeResults is the safety property: the same
// utterances decoded with and without telemetry must be byte-identical in
// words, costs, and deterministic search stats.
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	f := getFixture(t, 42)
	plain, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry(telemetry.NewRegistry(), nil)
	instr, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: true, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range f.scores {
		a, b := plain.Decode(sc), instr.Decode(sc)
		if a.Cost != b.Cost || len(a.Words) != len(b.Words) {
			t.Fatalf("utt %d: telemetry changed the result: cost %v vs %v", i, a.Cost, b.Cost)
		}
		for j := range a.Words {
			if a.Words[j] != b.Words[j] {
				t.Fatalf("utt %d word %d differs", i, j)
			}
		}
		if a.Stats != b.Stats {
			t.Fatalf("utt %d: search stats diverged:\n%+v\n%+v", i, a.Stats, b.Stats)
		}
	}
}

// TestTelemetryStreamLive checks incremental publication: counters must
// advance between pushes, mid-utterance, not only at Finish — the property
// that makes a /metrics scrape during a long stream informative.
func TestTelemetryStreamLive(t *testing.T) {
	f := getFixture(t, 42)
	reg := telemetry.NewRegistry()
	tel := NewTelemetry(reg, telemetry.NewTracer(4))
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	scores := f.scores[0]
	s := d.NewStream()
	half := len(scores) / 2
	for _, frame := range scores[:half] {
		if err := s.Push(frame); err != nil {
			t.Fatal(err)
		}
	}
	midFrames := tel.Frames.Value()
	midFetches := tel.LMFetches.Value()
	if midFrames != int64(half) {
		t.Errorf("frames counter mid-stream = %d, want %d", midFrames, half)
	}
	if midFetches == 0 {
		t.Error("LM fetch counter still zero mid-stream")
	}
	for _, frame := range scores[half:] {
		if err := s.Push(frame); err != nil {
			t.Fatal(err)
		}
	}
	res := s.Finish()
	if got := tel.Frames.Value(); got != int64(len(scores)) {
		t.Errorf("frames counter after Finish = %d, want %d", got, len(scores))
	}
	if got := tel.LMFetches.Value(); got != res.Stats.LMFetches {
		t.Errorf("lm fetches = %d, want %d (no double counting)", got, res.Stats.LMFetches)
	}
	if tel.Streams.Value() != 1 {
		t.Errorf("streams counter = %d, want 1", tel.Streams.Value())
	}
	// A second decode on the same instruments accumulates rather than
	// resets.
	s2 := d.NewStream()
	for _, frame := range scores {
		_ = s2.Push(frame)
	}
	s2.Finish()
	if got := tel.Frames.Value(); got != int64(2*len(scores)) {
		t.Errorf("frames after second stream = %d, want %d", got, 2*len(scores))
	}
}

// TestTelemetryNilIsInert pins the disabled path: a decoder with nil
// telemetry publishes nothing and NewTelemetry over a nil registry yields
// an inert set that still accepts every hook.
func TestTelemetryNilIsInert(t *testing.T) {
	f := getFixture(t, 42)
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{})
	if err != nil {
		t.Fatal(err)
	}
	d.Decode(f.scores[0]) // Telemetry nil: must not panic anywhere

	inert := NewTelemetry(nil, nil)
	inert.observeFrontier(10)
	inert.publishDelta(Stats{Frames: 5}, Stats{})
	inert.recordDecode(Stats{}, inert.now(), inert.startSpan("decode"))
	if inert.Frames.Value() != 0 {
		t.Error("inert telemetry recorded a value")
	}

	var nilTel *Telemetry
	nilTel.observeFrontier(1)
	nilTel.publishDelta(Stats{}, Stats{})
	nilTel.recordDecode(Stats{}, nilTel.now(), nilTel.startSpan("x"))
	nilTel.recordStream(Stats{}, Stats{}, nilTel.now(), nilTel.startSpan("x"))
}
