package decoder

import (
	"math/rand"
	"testing"

	"repro/internal/metrics"
	"repro/internal/semiring"
	"repro/internal/task"
	"repro/internal/wfst"
)

// fixture builds a small task plus its offline composition once per test
// binary; decoders are cheap to construct on top.
type fixture struct {
	tk       *task.Task
	composed *wfst.WFST
	scores   [][][]float32 // per test utterance
}

var fixtures = map[int64]*fixture{}

func getFixture(t testing.TB, seed int64) *fixture {
	t.Helper()
	if f, ok := fixtures[seed]; ok {
		return f
	}
	tk, err := task.Build(task.Spec{
		Name:           "dec-test",
		Vocab:          30,
		Phones:         12,
		TrainSentences: 250,
		TestUtterances: 6,
		LMMinCount:     2, // force back-off traffic
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	composed, err := wfst.Compose(tk.AM.G, tk.LMGraph.G, wfst.ComposeOptions{MaxStates: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{tk: tk, composed: composed}
	for _, u := range tk.Test {
		f.scores = append(f.scores, tk.Scorer.ScoreUtterance(u.Frames))
	}
	fixtures[seed] = f
	return f
}

// TestEquivalenceOracle is the package's core property: the on-the-fly
// decoder and the fully-composed decoder search the same space and must
// return the same hypothesis at the same cost (up to float accumulation
// order). This is the paper's claim that on-the-fly composition changes the
// memory system, not the result.
func TestEquivalenceOracle(t *testing.T) {
	f := getFixture(t, 42)
	cfg := Config{}
	dc, err := NewComposed(f.composed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	do, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range f.scores {
		rc := dc.Decode(sc)
		ro := do.Decode(sc)
		if len(rc.Words) != len(ro.Words) {
			t.Fatalf("utt %d: composed %v vs on-the-fly %v", i, rc.Words, ro.Words)
		}
		for j := range rc.Words {
			if rc.Words[j] != ro.Words[j] {
				t.Fatalf("utt %d word %d: composed %v vs on-the-fly %v", i, j, rc.Words, ro.Words)
			}
		}
		if !semiring.ApproxEqual(rc.Cost, ro.Cost, 0.05) {
			t.Errorf("utt %d: costs %v vs %v", i, rc.Cost, ro.Cost)
		}
		if rc.ReachedFinal != ro.ReachedFinal {
			t.Errorf("utt %d: finality %v vs %v", i, rc.ReachedFinal, ro.ReachedFinal)
		}
	}
}

// All three LM lookup strategies must agree on the result; they differ only
// in probe counts (the paper's 10x / 3x / 1.18x slowdown story).
func TestLookupKindsAgree(t *testing.T) {
	f := getFixture(t, 42)
	var results []*Result
	var probes []int64
	for _, kind := range []LookupKind{LookupLinear, LookupBinary, LookupMemo} {
		d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{Lookup: kind})
		if err != nil {
			t.Fatal(err)
		}
		var totalProbes int64
		var last *Result
		for _, sc := range f.scores {
			last = d.Decode(sc)
			totalProbes += last.Stats.LMProbes
		}
		results = append(results, last)
		probes = append(probes, totalProbes)
	}
	for i := 1; i < len(results); i++ {
		if len(results[i].Words) != len(results[0].Words) {
			t.Fatalf("lookup kinds disagree: %v vs %v", results[0].Words, results[i].Words)
		}
		for j := range results[0].Words {
			if results[i].Words[j] != results[0].Words[j] {
				t.Fatalf("lookup kinds disagree at word %d", j)
			}
		}
	}
	// Linear must probe far more than binary; memo fewer than binary.
	if probes[0] <= probes[1] {
		t.Errorf("linear probes %d <= binary probes %d", probes[0], probes[1])
	}
	if probes[2] >= probes[1] {
		t.Errorf("memo probes %d >= binary probes %d", probes[2], probes[1])
	}
}

func TestPreemptivePruningSafeAndActive(t *testing.T) {
	f := getFixture(t, 42)
	base, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	var pruned, fetches int64
	for i, sc := range f.scores {
		rb := base.Decode(sc)
		rp := pre.Decode(sc)
		if len(rb.Words) != len(rp.Words) {
			t.Fatalf("utt %d: pruning changed result: %v vs %v", i, rb.Words, rp.Words)
		}
		for j := range rb.Words {
			if rb.Words[j] != rp.Words[j] {
				t.Fatalf("utt %d: pruning changed word %d", i, j)
			}
		}
		if !semiring.ApproxEqual(rb.Cost, rp.Cost, 1e-3) {
			t.Errorf("utt %d: pruning changed cost %v vs %v", i, rb.Cost, rp.Cost)
		}
		pruned += rp.Stats.PreemptivePruned
		fetches += rp.Stats.LMFetches
	}
	if pruned == 0 {
		t.Error("preemptive pruning never fired (no back-off pressure in fixture?)")
	}
	t.Logf("preemptively pruned %d of %d LM fetches (%.1f%%)",
		pruned, fetches, 100*float64(pruned)/float64(fetches))
}

func TestDecodeAccuracy(t *testing.T) {
	f := getFixture(t, 42)
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var acc metrics.WERAccumulator
	for i, sc := range f.scores {
		r := d.Decode(sc)
		acc.Add(f.tk.Test[i].Words, r.Words)
	}
	if wer := acc.WER(); wer > 40 {
		t.Errorf("WER %.1f%% too high — decoder or models broken (%s)", wer, acc.String())
	}
}

func TestCleanUtteranceDecodesExactly(t *testing.T) {
	tk, err := task.Build(task.Spec{
		Name:           "clean",
		Vocab:          20,
		Phones:         10,
		TrainSentences: 150,
		TestUtterances: 1,
		NoiseStd:       0.25, // nearly clean frames
		SilenceProb:    0.0001,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	words := []int32{3, 7, 11, 2}
	frames := tk.SynthesizeFrames(rng, words)
	r := d.Decode(tk.Scorer.ScoreUtterance(frames))
	if len(r.Words) != len(words) {
		t.Fatalf("clean decode %v, want %v", r.Words, words)
	}
	for i := range words {
		if r.Words[i] != words[i] {
			t.Fatalf("clean decode %v, want %v", r.Words, words)
		}
	}
	if !r.ReachedFinal {
		t.Error("clean decode did not reach a final state")
	}
}

func TestBeamTightensSearch(t *testing.T) {
	f := getFixture(t, 42)
	wide, _ := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{Beam: 24})
	narrow, _ := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{Beam: 6})
	rw := wide.Decode(f.scores[0])
	rn := narrow.Decode(f.scores[0])
	if rn.Stats.TokensExpanded >= rw.Stats.TokensExpanded {
		t.Errorf("narrow beam expanded %d >= wide beam %d",
			rn.Stats.TokensExpanded, rw.Stats.TokensExpanded)
	}
	// A narrower beam can only do worse or equal on cost.
	if rn.Cost < rw.Cost-1e-3 {
		t.Errorf("narrow beam found better cost %v < %v", rn.Cost, rw.Cost)
	}
}

func TestMaxActiveCaps(t *testing.T) {
	f := getFixture(t, 42)
	d, _ := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{MaxActive: 50})
	r := d.Decode(f.scores[0])
	perFrame := float64(r.Stats.TokensExpanded) / float64(r.Stats.Frames)
	if perFrame > 50 {
		t.Errorf("mean active tokens %.1f exceeds MaxActive 50", perFrame)
	}
}

func TestMemoWarmsAcrossUtterances(t *testing.T) {
	f := getFixture(t, 42)
	d, _ := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{})
	r1 := d.Decode(f.scores[0])
	r2 := d.Decode(f.scores[0]) // identical utterance: table is warm
	h1 := float64(r1.Stats.MemoHits) / float64(r1.Stats.MemoHits+r1.Stats.MemoMisses)
	h2 := float64(r2.Stats.MemoHits) / float64(r2.Stats.MemoHits+r2.Stats.MemoMisses)
	if h2 <= h1 {
		t.Errorf("memo hit rate did not improve: %.3f -> %.3f", h1, h2)
	}
	d.ResetMemo()
	r3 := d.Decode(f.scores[0])
	if r3.Stats.MemoMisses < r2.Stats.MemoMisses {
		t.Error("ResetMemo did not cool the table")
	}
}

func TestDecodeDeterministic(t *testing.T) {
	f := getFixture(t, 42)
	for _, pre := range []bool{false, true} {
		d1, _ := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: pre})
		d2, _ := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: pre})
		r1 := d1.Decode(f.scores[1])
		r2 := d2.Decode(f.scores[1])
		if r1.Cost != r2.Cost || r1.Stats != r2.Stats {
			t.Errorf("pre=%v: nondeterministic decode: %+v vs %+v", pre, r1.Stats, r2.Stats)
		}
	}
}

func TestBackoffTraffic(t *testing.T) {
	f := getFixture(t, 42)
	d, _ := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{})
	r := d.Decode(f.scores[0])
	if r.Stats.LMFetches == 0 {
		t.Fatal("no LM fetches — no cross-word transitions taken")
	}
	if r.Stats.BackoffHops == 0 {
		t.Error("no back-off hops — pruned LM should force them")
	}
	if r.Stats.LatticeEntries == 0 {
		t.Error("no lattice entries written")
	}
}

func TestEmptyScores(t *testing.T) {
	f := getFixture(t, 42)
	d, _ := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{})
	r := d.Decode(nil)
	if len(r.Words) != 0 {
		t.Errorf("empty utterance decoded to %v", r.Words)
	}
	if !r.ReachedFinal {
		t.Error("start state is final; empty decode should reach final")
	}
}

func TestNewDecoderErrors(t *testing.T) {
	f := getFixture(t, 42)
	empty := wfst.NewBuilder().MustBuild()
	if _, err := NewComposed(empty, Config{}); err == nil {
		t.Error("expected error for empty composed graph")
	}
	if _, err := NewOnTheFly(empty, f.tk.LMGraph.G, Config{}); err == nil {
		t.Error("expected error for empty AM")
	}
	unsorted := f.tk.AM.G // AM graphs are not input-sorted
	if _, err := NewOnTheFly(f.tk.AM.G, unsorted, Config{}); err == nil {
		t.Error("expected error for unsorted LM")
	}
}

// Word end-times must be present, within the utterance, and nondecreasing.
func TestWordEndTimes(t *testing.T) {
	f := getFixture(t, 42)
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range f.scores {
		r := d.Decode(sc)
		if len(r.WordEnds) != len(r.Words) {
			t.Fatalf("utt %d: %d end times for %d words", i, len(r.WordEnds), len(r.Words))
		}
		prev := int32(-1)
		for j, e := range r.WordEnds {
			if e < 0 || int(e) >= len(sc) {
				t.Fatalf("utt %d word %d: end frame %d outside utterance", i, j, e)
			}
			if e < prev {
				t.Fatalf("utt %d: end times not monotone: %v", i, r.WordEnds)
			}
			prev = e
		}
	}
	// Composed decoder produces the same timings (same search space).
	dc, err := NewComposed(f.composed, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range f.scores {
		ro := d.Decode(sc)
		rc := dc.Decode(sc)
		if len(ro.WordEnds) != len(rc.WordEnds) {
			t.Fatalf("utt %d: timing count mismatch", i)
		}
		for j := range ro.WordEnds {
			if ro.WordEnds[j] != rc.WordEnds[j] {
				t.Fatalf("utt %d word %d: OTF end %d vs composed %d",
					i, j, ro.WordEnds[j], rc.WordEnds[j])
			}
		}
	}
}
