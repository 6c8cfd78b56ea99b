package decoder

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/semiring"
)

func TestTwoPassDecodes(t *testing.T) {
	f := getFixture(t, 42)
	tp, err := NewTwoPass(f.tk.AM.G, f.tk.LMGraph.G, Config{}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range f.scores {
		r := tp.Decode(sc)
		if len(r.Words) == 0 {
			t.Fatalf("utt %d: empty two-pass result", i)
		}
		if r.Candidates < 1 {
			t.Fatalf("utt %d: no candidates rescored", i)
		}
		if semiring.IsZero(r.Cost) {
			t.Fatalf("utt %d: infinite rescored cost", i)
		}
	}
}

// The two-pass decoder's accuracy must be in the same league as one-pass:
// it can lose hypotheses the unigram pass pruned, but on a small task with
// a reasonable lattice beam it should be close.
func TestTwoPassAccuracyComparable(t *testing.T) {
	f := getFixture(t, 42)
	one, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{})
	if err != nil {
		t.Fatal(err)
	}
	two, err := NewTwoPass(f.tk.AM.G, f.tk.LMGraph.G, Config{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	var w1, w2 metrics.WERAccumulator
	for i, sc := range f.scores {
		r1 := one.Decode(sc)
		r2 := two.Decode(sc)
		w1.Add(f.tk.Test[i].Words, r1.Words)
		w2.Add(f.tk.Test[i].Words, r2.Words)
	}
	if w2.WER() > w1.WER()+25 {
		t.Errorf("two-pass WER %.1f%% far worse than one-pass %.1f%%", w2.WER(), w1.WER())
	}
	t.Logf("one-pass WER %.1f%%, two-pass WER %.1f%%", w1.WER(), w2.WER())
}

// More lattice alternatives can only improve (or preserve) the rescored
// cost of the best hypothesis.
func TestTwoPassMoreCandidatesNeverWorse(t *testing.T) {
	f := getFixture(t, 42)
	small, _ := NewTwoPass(f.tk.AM.G, f.tk.LMGraph.G, Config{}, 1)
	large, _ := NewTwoPass(f.tk.AM.G, f.tk.LMGraph.G, Config{}, 12)
	for i, sc := range f.scores {
		rs := small.Decode(sc)
		rl := large.Decode(sc)
		if rl.Candidates < rs.Candidates {
			t.Errorf("utt %d: K=12 produced fewer candidates (%d) than K=1 (%d)",
				i, rl.Candidates, rs.Candidates)
		}
		if rl.Cost > rs.Cost+1e-3 {
			t.Errorf("utt %d: K=12 cost %v worse than K=1 cost %v", i, rl.Cost, rs.Cost)
		}
	}
}

func TestTwoPassErrors(t *testing.T) {
	f := getFixture(t, 42)
	if _, err := NewTwoPass(f.tk.AM.G, f.tk.AM.G, Config{}, 4); err == nil {
		t.Error("expected error for unsorted LM")
	}
}

func TestTwoPassDefaultK(t *testing.T) {
	f := getFixture(t, 42)
	tp, err := NewTwoPass(f.tk.AM.G, f.tk.LMGraph.G, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tp.K != 4 {
		t.Errorf("default K = %d, want 4", tp.K)
	}
}
