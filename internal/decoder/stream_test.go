package decoder

import (
	"testing"

	"repro/internal/semiring"
)

// The streaming interface must reproduce the batch decoder exactly.
func TestStreamMatchesBatch(t *testing.T) {
	f := getFixture(t, 42)
	for _, pre := range []bool{false, true} {
		d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: pre})
		if err != nil {
			t.Fatal(err)
		}
		for i, sc := range f.scores {
			batch := d.Decode(sc)
			d.ResetMemo() // same memo state as the batch run saw
			s := d.NewStream()
			for _, frame := range sc {
				if err := s.Push(frame); err != nil {
					t.Fatal(err)
				}
			}
			got := s.Finish()
			d.ResetMemo()
			if len(got.Words) != len(batch.Words) {
				t.Fatalf("pre=%v utt %d: stream %v vs batch %v", pre, i, got.Words, batch.Words)
			}
			for j := range got.Words {
				if got.Words[j] != batch.Words[j] {
					t.Fatalf("pre=%v utt %d word %d differs", pre, i, j)
				}
			}
			if !semiring.ApproxEqual(got.Cost, batch.Cost, 1e-4) {
				t.Errorf("pre=%v utt %d: cost %v vs %v", pre, i, got.Cost, batch.Cost)
			}
			if got.Stats.Frames != batch.Stats.Frames {
				t.Errorf("frame counts differ: %d vs %d", got.Stats.Frames, batch.Stats.Frames)
			}
		}
	}
}

func TestStreamPartialGrows(t *testing.T) {
	f := getFixture(t, 42)
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := d.NewStream()
	sc := f.scores[0]
	var lens []int
	for i, frame := range sc {
		if err := s.Push(frame); err != nil {
			t.Fatal(err)
		}
		if i%20 == 19 {
			lens = append(lens, len(s.Partial()))
		}
	}
	final := s.Finish()
	if len(lens) >= 2 && lens[len(lens)-1] < lens[0] {
		t.Errorf("partial hypotheses shrank over time: %v", lens)
	}
	if len(final.Words) == 0 {
		t.Error("empty final result")
	}
}

func TestStreamEmptyFrameRejected(t *testing.T) {
	f := getFixture(t, 42)
	d, _ := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{})
	s := d.NewStream()
	if err := s.Push(nil); err == nil {
		t.Error("expected error for empty frame")
	}
}

func TestStreamSurvivesSearchDeath(t *testing.T) {
	f := getFixture(t, 42)
	// An absurdly tight beam kills the search mid-utterance; the stream
	// must still return the best partial result rather than panic.
	d, _ := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{Beam: 0.0001, MaxActive: 1})
	s := d.NewStream()
	for _, frame := range f.scores[0] {
		if err := s.Push(frame); err != nil {
			t.Fatal(err)
		}
	}
	r := s.Finish()
	if r == nil {
		t.Fatal("nil result after search death")
	}
	// Decode's frame count: every frame supplied, searched or not.
	if r.Stats.Frames != len(f.scores[0]) {
		t.Errorf("Stats.Frames = %d after search death, want every pushed frame (%d)", r.Stats.Frames, len(f.scores[0]))
	}
}

func TestNBestOrderedAndDeduplicated(t *testing.T) {
	f := getFixture(t, 42)
	tp, err := NewTwoPass(f.tk.AM.G, f.tk.LMGraph.G, Config{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range f.scores {
		list := tp.NBest(sc, 5)
		if len(list) == 0 {
			t.Fatalf("utt %d: empty N-best", i)
		}
		for j := 1; j < len(list); j++ {
			if list[j].Cost < list[j-1].Cost {
				t.Fatalf("utt %d: N-best not sorted at %d", i, j)
			}
			if equalHyp(list[j].Words, list[j-1].Words) {
				t.Fatalf("utt %d: duplicate hypothesis in N-best", i)
			}
		}
		// The 1-best of NBest must equal Decode's result.
		d := tp.Decode(sc)
		if !equalHyp(d.Words, list[0].Words) {
			t.Fatalf("utt %d: Decode != NBest[0]", i)
		}
	}
}

func equalHyp(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
