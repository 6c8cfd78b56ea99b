package decoder

import (
	"testing"
)

// laneSolo decodes every fixture utterance solo on a fresh decoder each
// (mirroring the fresh-decoder-per-lane-join convention, so offset-memo
// statistics line up exactly).
func laneSolo(t *testing.T, f *fixture, cfg Config) []*Result {
	t.Helper()
	out := make([]*Result, len(f.scores))
	for i, scores := range f.scores {
		d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d.Decode(scores)
	}
	return out
}

// compareLaneResult asserts byte-identical lane-vs-solo results.
func compareLaneResult(t *testing.T, utt int, got, want *Result) {
	t.Helper()
	if got == nil {
		t.Fatalf("utt %d: lane returned nil result", utt)
	}
	if got.Cost != want.Cost {
		t.Errorf("utt %d cost: lane %v, solo %v", utt, got.Cost, want.Cost)
	}
	if got.ReachedFinal != want.ReachedFinal {
		t.Errorf("utt %d finality: lane %v, solo %v", utt, got.ReachedFinal, want.ReachedFinal)
	}
	if !equalInt32s(got.Words, want.Words) {
		t.Errorf("utt %d words: lane %v, solo %v", utt, got.Words, want.Words)
	}
	if !equalInt32s(got.WordEnds, want.WordEnds) {
		t.Errorf("utt %d word ends: lane %v, solo %v", utt, got.WordEnds, want.WordEnds)
	}
	if gs, ws := got.Stats.Search(), want.Stats.Search(); gs != ws {
		t.Errorf("utt %d stats: lane %+v, solo %+v", utt, gs, ws)
	}
}

// TestLaneGroupMatchesSolo decodes the fixture test set through a width-3
// lane group in admission waves and checks every result against a solo
// decode — words, ends, cost bits, finality and search statistics.
func TestLaneGroupMatchesSolo(t *testing.T) {
	f := getFixture(t, 42)
	cfg := Config{PreemptivePruning: true}
	want := laneSolo(t, f, cfg)

	g, err := NewLaneGroup(f.tk.Scorer, 3)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	lanes := map[*Lane]int{}
	for next < len(f.tk.Test) || len(lanes) > 0 {
		for next < len(f.tk.Test) && g.Active() < g.Width() {
			d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, cfg)
			if err != nil {
				t.Fatal(err)
			}
			l, err := g.Join(d)
			if err != nil {
				t.Fatal(err)
			}
			l.Push(f.tk.Test[next].Frames)
			lanes[l] = next
			next++
		}
		g.Step()
		for l, utt := range lanes {
			if l.Pending() == 0 {
				compareLaneResult(t, utt, l.Finish(), want[utt])
				delete(lanes, l)
			}
		}
	}
	st := g.Stats()
	if st.Joins != int64(len(f.tk.Test)) || st.Drains != st.Joins {
		t.Errorf("join/drain accounting: %+v", st)
	}
	if active := g.Active(); active != 0 {
		t.Errorf("lanes still active after drain: %d", active)
	}
	if ratio := st.ScorerCallsPerFrame(); ratio >= 1 {
		t.Errorf("scorer calls/frame = %.3f, want < 1 with 3 lanes", ratio)
	}
}

// TestLaneGroupContinuousJoin proves mid-flight admission: an utterance
// joining while the group is half way through others still decodes
// byte-identically, and slots recycle (more utterances than width).
func TestLaneGroupContinuousJoin(t *testing.T) {
	f := getFixture(t, 42)
	cfg := Config{}
	want := laneSolo(t, f, cfg)

	g, err := NewLaneGroup(f.tk.Scorer, 2)
	if err != nil {
		t.Fatal(err)
	}
	newDec := func() *OnTheFly {
		d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// Lane A starts alone and advances 5 frames before B joins mid-flight.
	a, _ := g.Join(newDec())
	a.Push(f.tk.Test[0].Frames)
	for i := 0; i < 5; i++ {
		g.Step()
	}
	b, _ := g.Join(newDec())
	b.Push(f.tk.Test[1].Frames)
	for g.Step() > 0 {
	}
	compareLaneResult(t, 0, a.Finish(), want[0])
	compareLaneResult(t, 1, b.Finish(), want[1])
	// The freed slots take two more utterances (recycled streams/states).
	c, _ := g.Join(newDec())
	c.Push(f.tk.Test[2].Frames)
	d2, _ := g.Join(newDec())
	d2.Push(f.tk.Test[3].Frames)
	compareLaneResult(t, 2, c.Finish(), want[2])
	compareLaneResult(t, 3, d2.Finish(), want[3])
}

// TestLaneGroupFull: admission past the width fails with ErrLanesFull, and
// a drain reopens the slot.
func TestLaneGroupFull(t *testing.T) {
	f := getFixture(t, 42)
	g, err := NewLaneGroup(f.tk.Scorer, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := g.Join(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Join(d); err != ErrLanesFull {
		t.Fatalf("second join: got %v, want ErrLanesFull", err)
	}
	l.Leave()
	if _, err := g.Join(d); err != nil {
		t.Fatalf("join after leave: %v", err)
	}
}

// TestLaneGroupRejectsWidth: invalid widths and non-batchable scorers fail
// at construction.
func TestLaneGroupRejectsWidth(t *testing.T) {
	f := getFixture(t, 42)
	if _, err := NewLaneGroup(f.tk.Scorer, 0); err == nil {
		t.Fatal("width 0 accepted")
	}
	if _, err := NewLaneGroup(soloOnlyScorer{}, 2); err == nil {
		t.Fatal("non-batch scorer accepted")
	}
}

// soloOnlyScorer implements acoustic.Scorer but not BatchScorer.
type soloOnlyScorer struct{}

func (soloOnlyScorer) ScoreUtterance(frames [][]float32) [][]float32 { return nil }
func (soloOnlyScorer) FLOPsPerFrame() float64                        { return 0 }
func (soloOnlyScorer) Name() string                                  { return "solo-only" }

// TestLaneGroupEmptyUtterance: a lane finished without any frames matches a
// solo decode of zero frames (the initial-closure-only result).
func TestLaneGroupEmptyUtterance(t *testing.T) {
	f := getFixture(t, 42)
	g, err := NewLaneGroup(f.tk.Scorer, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := g.Join(d)
	if err != nil {
		t.Fatal(err)
	}
	got := l.Finish()
	dSolo, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{})
	if err != nil {
		t.Fatal(err)
	}
	compareLaneResult(t, 0, got, dSolo.Decode(nil))
}

// TestLaneGroupPanicIsolation: a panic inside one lane's frontier step
// marks only that lane failed; the other lane's result stays byte-identical
// to solo, and the failed slot is reusable after Leave/Finish.
func TestLaneGroupPanicIsolation(t *testing.T) {
	f := getFixture(t, 42)
	cfg := Config{}
	want := laneSolo(t, f, cfg)

	g, err := NewLaneGroup(f.tk.Scorer, 2)
	if err != nil {
		t.Fatal(err)
	}
	healthyDec, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	evilDec, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The fault is injected mid-utterance from inside the frontier step
	// (Join's initial closure, frame -1, runs outside the lane's recover).
	evilDec.frameHook = func(frame int, _ []uint64, _ []token) {
		if frame == 3 {
			panic("injected frontier fault")
		}
	}
	healthy, _ := g.Join(healthyDec)
	healthy.Push(f.tk.Test[0].Frames)
	evil, _ := g.Join(evilDec)
	evil.Push(f.tk.Test[1].Frames)
	for g.Step() > 0 {
	}
	if evil.Err() == nil {
		t.Fatal("evil lane did not fail")
	}
	if res := evil.Finish(); res != nil {
		t.Fatalf("failed lane returned a result: %+v", res)
	}
	compareLaneResult(t, 0, healthy.Finish(), want[0])
	if g.Active() != 0 {
		t.Fatalf("slots leaked after failure: %d active", g.Active())
	}
	// The slot that hosted the panic joins cleanly again (fresh decoder, so
	// memo statistics match the solo baseline).
	freshDec, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := g.Join(freshDec)
	if err != nil {
		t.Fatal(err)
	}
	again.Push(f.tk.Test[1].Frames)
	compareLaneResult(t, 1, again.Finish(), want[1])
}
