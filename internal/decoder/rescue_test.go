package decoder

import (
	"context"
	"math"
	"testing"
)

// poisonFrame returns a copy of scores with frame f's row replaced by NaN —
// an unsearchable frame: every emission cost is non-finite, so the active
// set empties no matter how wide the beam.
func poisonFrame(scores [][]float32, f int) [][]float32 {
	out := make([][]float32, len(scores))
	copy(out, scores)
	row := make([]float32, len(scores[f]))
	for i := range row {
		row[i] = float32(math.NaN())
	}
	out[f] = row
	return out
}

// TestSearchDeathTruncates: with rescue disabled, an unsearchable frame
// kills the search; the decoder must return the best partial hypothesis and
// count the failure rather than propagate NaN or panic.
func TestSearchDeathTruncates(t *testing.T) {
	f := getFixture(t, 42)
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	clean := d.Decode(f.scores[0])
	poisoned := poisonFrame(f.scores[0], len(f.scores[0])/2)
	r := d.Decode(poisoned)
	if r == nil {
		t.Fatal("nil result after search death")
	}
	if r.Stats.SearchFailures != 1 {
		t.Fatalf("SearchFailures = %d, want 1", r.Stats.SearchFailures)
	}
	if r.Stats.Rescues != 0 {
		t.Errorf("Rescues = %d with rescue disabled", r.Stats.Rescues)
	}
	if len(r.Words) >= len(clean.Words) && len(clean.Words) > 0 {
		// Truncation at mid-utterance should lose words relative to clean.
		t.Logf("note: truncated decode kept %d of %d words", len(r.Words), len(clean.Words))
	}
	if rr := r.Cost; rr != rr || math.IsInf(float64(rr), 0) {
		t.Errorf("non-finite cost %v leaked out of a poisoned decode", rr)
	}
}

// TestRescueSkipsUnsearchableFrame: with rescue enabled the decoder widens
// (counting each attempt), concludes the frame is unsearchable, skips it,
// and decodes the rest of the utterance — same transcript as the clean run.
func TestRescueSkipsUnsearchableFrame(t *testing.T) {
	f := getFixture(t, 42)
	const widenings = 3
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: true, RescueWidenings: widenings})
	if err != nil {
		t.Fatal(err)
	}
	clean := d.Decode(f.scores[0])
	poisoned := poisonFrame(f.scores[0], len(f.scores[0])/2)
	r := d.Decode(poisoned)
	if r.Stats.Rescues != widenings {
		t.Errorf("Rescues = %d, want %d (bounded escalation must stop)", r.Stats.Rescues, widenings)
	}
	if r.Stats.SearchFailures != 1 {
		t.Errorf("SearchFailures = %d, want 1", r.Stats.SearchFailures)
	}
	if len(r.Words) == 0 {
		t.Fatal("rescued decode produced no words")
	}
	// One skipped frame out of many must not derail the whole hypothesis:
	// the search continued to the end rather than truncating at the poison.
	if len(r.Words) < len(clean.Words)-2 {
		t.Errorf("rescued decode kept %d words, clean run has %d", len(r.Words), len(clean.Words))
	}
}

// TestStreamRescuesLikeDecode: one poisoned frame, rescue off (the search
// dies) and on (the frame is widened, then skipped). A Stream pushed the
// rows frame by frame, and one fed them through Feed, must finish with
// Decode's result on every fixture utterance: words, word ends, cost bits,
// finality and every Stats field.
func TestStreamRescuesLikeDecode(t *testing.T) {
	f := getFixture(t, 42)
	for _, widenings := range []int{0, 2} {
		// One decoder per path: the offset table persists across
		// utterances, and its hit counts are part of Stats.
		dec := func() *OnTheFly {
			d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: true, RescueWidenings: widenings})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		dDecode, dPush, dFeed := dec(), dec(), dec()
		for i, scores := range f.scores {
			in := poisonFrame(scores, len(scores)/2)
			want := dDecode.Decode(in)
			if want.Stats.SearchFailures != 1 {
				t.Fatalf("rescue %d utt %d: the poisoned frame did not fail the search", widenings, i)
			}
			pushed := dPush.NewStream()
			for _, row := range in {
				if err := pushed.Push(row); err != nil {
					t.Fatal(err)
				}
			}
			fed := dFeed.NewStream()
			fed.Feed(&rowFeed{in}, len(in))
			for arm, got := range map[string]*Result{"push": pushed.Finish(), "feed": fed.Finish()} {
				if math.Float32bits(float32(got.Cost)) != math.Float32bits(float32(want.Cost)) ||
					got.ReachedFinal != want.ReachedFinal || got.Stats != want.Stats ||
					!equalInt32s(got.Words, want.Words) || !equalInt32s(got.WordEnds, want.WordEnds) {
					t.Errorf("rescue %d utt %d %s: stream %v at %v cost %v %+v, Decode %v at %v cost %v %+v",
						widenings, i, arm, got.Words, got.WordEnds, got.Cost, got.Stats,
						want.Words, want.WordEnds, want.Cost, want.Stats)
				}
			}
			pushed.Close()
			fed.Close()
		}
	}
}

// TestRescueIdleWhenBeamHealthy: with healthy scores the rescue machinery
// must never fire, and results must be byte-identical to a decoder built
// without it — the opt-in guarantee that keeps the equivalence oracle valid.
func TestRescueIdleWhenBeamHealthy(t *testing.T) {
	f := getFixture(t, 42)
	plain, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	rescued, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: true, RescueWidenings: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range f.scores {
		a, b := plain.Decode(sc), rescued.Decode(sc)
		if b.Stats.Rescues != 0 || b.Stats.SearchFailures != 0 {
			t.Fatalf("utt %d: rescue fired on healthy scores: %d/%d", i, b.Stats.Rescues, b.Stats.SearchFailures)
		}
		if len(a.Words) != len(b.Words) || a.Cost != b.Cost {
			t.Fatalf("utt %d: rescue-enabled decoder diverged: %v vs %v", i, a.Words, b.Words)
		}
		for j := range a.Words {
			if a.Words[j] != b.Words[j] {
				t.Fatalf("utt %d word %d differs", i, j)
			}
		}
	}
}

// TestPoisonBurstSurvives: partial poison (a NaN burst in some rows, the
// shape faultinject.NaNScorer produces) must not require rescue at all —
// non-finite hypotheses are dropped arc by arc and healthy arcs carry the
// frame, with a finite final cost.
func TestPoisonBurstSurvives(t *testing.T) {
	f := getFixture(t, 42)
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	scores := make([][]float32, len(f.scores[0]))
	for i, row := range f.scores[0] {
		r := append([]float32(nil), row...)
		if i%4 == 0 {
			for j := 1; j < len(r) && j < 9; j++ {
				r[j] = float32(math.Inf(1))
			}
		}
		scores[i] = r
	}
	r := d.Decode(scores)
	if r.Stats.SearchFailures != 0 {
		t.Errorf("burst poison killed the search: %d failures", r.Stats.SearchFailures)
	}
	if len(r.Words) == 0 {
		t.Error("burst-poisoned decode produced no words")
	}
	if c := float64(r.Cost); math.IsNaN(c) || math.IsInf(c, 0) {
		t.Errorf("non-finite cost %v survived the finite-weight guard", r.Cost)
	}
}

// TestDecodeContextCancel: a canceled context stops the per-frame loop and
// returns the best partial hypothesis together with ctx.Err().
func TestDecodeContextCancel(t *testing.T) {
	f := getFixture(t, 42)
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, cerr := d.DecodeContext(ctx, &rowFeed{f.scores[0]}, len(f.scores[0]))
	if cerr != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", cerr)
	}
	if r == nil {
		t.Fatal("nil result on cancellation; want best partial")
	}
	if r.Stats.Frames != 0 {
		t.Errorf("pre-canceled decode processed %d frames", r.Stats.Frames)
	}
	// The same decoder must still work for the next call.
	if r2, err := d.DecodeContext(context.Background(), &rowFeed{f.scores[0]}, len(f.scores[0])); err != nil || len(r2.Words) == 0 {
		t.Fatalf("decoder unusable after cancellation: %v", err)
	}
}
