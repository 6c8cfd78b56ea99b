package wfst

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/semiring"
)

// buildFig3LM builds the toy 3-word back-off LM of the paper's Figure 3b:
// state 0 = empty history with one unigram arc per word, states 1..3 =
// one-word histories, states 4..6 = two-word histories, back-off arcs
// (epsilon input) pointing one level down.
func buildFig3LM(t testing.TB) *WFST {
	t.Helper()
	b := NewBuilder()
	for i := 0; i < 7; i++ {
		b.AddState()
	}
	b.SetStart(0)
	for s := StateID(0); s < 7; s++ {
		b.SetFinal(s, semiring.One)
	}
	// Words: 1=ONE, 2=TWO, 3=THREE.
	// Unigrams from state 0; dest = word's history state.
	b.AddArc(0, Arc{In: 1, Out: 1, W: 1.0, Next: 1})
	b.AddArc(0, Arc{In: 2, Out: 2, W: 1.2, Next: 2})
	b.AddArc(0, Arc{In: 3, Out: 3, W: 1.4, Next: 3})
	// Bigrams (sparse) + back-off arcs from one-word histories.
	b.AddArc(1, Arc{In: 3, Out: 3, W: 0.5, Next: 4}) // ONE THREE -> hist(ONE,THREE)
	b.AddArc(1, Arc{In: Epsilon, Out: Epsilon, W: 0.3, Next: 0})
	b.AddArc(2, Arc{In: 1, Out: 1, W: 0.6, Next: 5}) // TWO ONE
	b.AddArc(2, Arc{In: Epsilon, Out: Epsilon, W: 0.25, Next: 0})
	b.AddArc(3, Arc{In: 2, Out: 2, W: 0.7, Next: 6}) // THREE TWO
	b.AddArc(3, Arc{In: Epsilon, Out: Epsilon, W: 0.2, Next: 0})
	// Trigrams + back-off from two-word histories.
	b.AddArc(4, Arc{In: 2, Out: 2, W: 0.4, Next: 6}) // (ONE,THREE) TWO -> hist(THREE,TWO)
	b.AddArc(4, Arc{In: Epsilon, Out: Epsilon, W: 0.15, Next: 3})
	b.AddArc(5, Arc{In: 3, Out: 3, W: 0.45, Next: 4}) // (TWO,ONE) THREE
	b.AddArc(5, Arc{In: Epsilon, Out: Epsilon, W: 0.1, Next: 1})
	b.AddArc(6, Arc{In: 1, Out: 1, W: 0.35, Next: 5}) // (THREE,TWO) ONE
	b.AddArc(6, Arc{In: Epsilon, Out: Epsilon, W: 0.12, Next: 2})
	g := b.MustBuild()
	g.SortByInput()
	return g
}

// buildFig3AM builds a miniature acoustic transducer in the style of the
// paper's Figure 3a: one senone-labelled chain per word whose last arc emits
// the word ID, plus epsilon arcs looping back to the start state.
func buildFig3AM(t testing.TB) *WFST {
	t.Helper()
	b := NewBuilder()
	start := b.AddState() // 0
	b.SetStart(start)
	b.SetFinal(start, semiring.One)
	// Word 1 (ONE): senones 1,2,3. Word 2 (TWO): 4,5. Word 3 (THREE): 6,7,8.
	prons := map[int32][]int32{1: {1, 2, 3}, 2: {4, 5}, 3: {6, 7, 8}}
	for _, w := range []int32{1, 2, 3} {
		pron := prons[w]
		prev := start
		for i, senone := range pron {
			out := Epsilon
			if i == len(pron)-1 {
				out = w
			}
			next := b.AddState()
			b.AddArc(prev, Arc{In: senone, Out: out, W: 0.1, Next: next})
			b.AddArc(next, Arc{In: senone, Out: Epsilon, W: 0.05, Next: next}) // self-loop
			prev = next
		}
		b.AddArc(prev, Arc{In: Epsilon, Out: Epsilon, W: 0, Next: start}) // word-end loop
	}
	return b.MustBuild()
}

func TestBuilderAndAccessors(t *testing.T) {
	g := buildFig3LM(t)
	if g.NumStates() != 7 {
		t.Fatalf("NumStates = %d, want 7", g.NumStates())
	}
	if g.NumArcs() != 15 {
		t.Fatalf("NumArcs = %d, want 15", g.NumArcs())
	}
	if g.Start() != 0 {
		t.Fatalf("Start = %d, want 0", g.Start())
	}
	if !g.IsFinal(3) {
		t.Error("state 3 should be final")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if len(g.Arcs(0)) != 3 {
		t.Errorf("state 0 fan-out = %d, want 3", len(g.Arcs(0)))
	}
	// ArcRange + ArcSpan is Arcs in two steps, down to the backing array.
	for s := StateID(0); int(s) < g.NumStates(); s++ {
		lo, hi := g.ArcRange(s)
		span, arcs := g.ArcSpan(lo, hi), g.Arcs(s)
		if lo != g.ArcIndexBase(s) || len(span) != len(arcs) || (len(arcs) > 0 && &span[0] != &arcs[0]) {
			t.Errorf("state %d: ArcSpan(ArcRange) = [%d,%d) (%d arcs), want the %d arcs at %d", s, lo, hi, len(span), len(arcs), g.ArcIndexBase(s))
		}
	}
}

func TestSortAndFindArc(t *testing.T) {
	g := buildFig3LM(t)
	for _, tc := range []struct {
		state StateID
		word  int32
		found bool
	}{
		{0, 1, true}, {0, 2, true}, {0, 3, true},
		{1, 3, true}, {1, 2, false}, // TWO pruned from bigram of ONE
		{6, 1, true}, {6, 3, false},
	} {
		idx, ok := g.FindArc(tc.state, tc.word, nil)
		if ok != tc.found {
			t.Errorf("FindArc(%d, %d) found=%v, want %v", tc.state, tc.word, ok, tc.found)
			continue
		}
		if ok && g.Arcs(tc.state)[idx].In != tc.word {
			t.Errorf("FindArc(%d, %d) returned arc with label %d", tc.state, tc.word, g.Arcs(tc.state)[idx].In)
		}
	}
}

func TestFindArcLinearAgreesWithBinary(t *testing.T) {
	g := buildFig3LM(t)
	for s := StateID(0); int(s) < g.NumStates(); s++ {
		for w := int32(1); w <= 3; w++ {
			i1, ok1 := g.FindArc(s, w, nil)
			i2, ok2 := g.FindArcLinear(s, w, nil)
			if ok1 != ok2 || (ok1 && i1 != i2) {
				t.Errorf("state %d word %d: binary (%d,%v) vs linear (%d,%v)", s, w, i1, ok1, i2, ok2)
			}
		}
	}
}

func TestBackoffArc(t *testing.T) {
	g := buildFig3LM(t)
	if _, ok := g.BackoffArc(0); ok {
		t.Error("unigram state must not have a back-off arc")
	}
	bo, ok := g.BackoffArc(4)
	if !ok {
		t.Fatal("state 4 should have a back-off arc")
	}
	if bo.Next != 3 {
		t.Errorf("state 4 backs off to %d, want 3", bo.Next)
	}
}

func TestResolveWordDirectAndBackoff(t *testing.T) {
	g := buildFig3LM(t)
	// Direct trigram hit: state 6 + word ONE.
	next, w, hops, ok := g.ResolveWord(6, 1)
	if !ok || next != 5 || hops != 0 {
		t.Errorf("ResolveWord(6,1) = (%d, %v, %d, %v), want (5, _, 0, true)", next, w, hops, ok)
	}
	if !semiring.ApproxEqual(w, 0.35, 1e-6) {
		t.Errorf("weight = %v, want 0.35", w)
	}
	// Paper's example: from (TWO,ONE)=state 5, word TWO backs off twice:
	// 5 -> 1 (bow 0.1), 1 -> 0 (bow 0.3), then unigram TWO (1.2) to state 2.
	next, w, hops, ok = g.ResolveWord(5, 2)
	if !ok || next != 2 || hops != 2 {
		t.Errorf("ResolveWord(5,2) = (%d, %v, %d, %v), want (2, _, 2, true)", next, w, hops, ok)
	}
	if !semiring.ApproxEqual(w, 0.1+0.3+1.2, 1e-5) {
		t.Errorf("backed-off weight = %v, want 1.6", w)
	}
}

func TestComposeFig3(t *testing.T) {
	am := buildFig3AM(t)
	lm := buildFig3LM(t)
	c, err := Compose(am, lm, ComposeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumStates() == 0 || c.NumArcs() == 0 {
		t.Fatal("empty composition")
	}
	// The composed machine must be strictly larger than either component —
	// the blow-up the paper's Table 1 quantifies.
	if c.NumArcs() <= lm.NumArcs() {
		t.Errorf("composed arcs = %d, not larger than LM arcs %d", c.NumArcs(), lm.NumArcs())
	}
	// Every cross-word arc's weight must include an LM contribution: find the
	// arc emitting word 1 from the composed start and check its weight is the
	// AM arc weight (0.1) plus the unigram weight of ONE... cross-word arcs
	// emit at word end, so instead verify globally: total cross-word arcs > 0
	// and all weights finite.
	st := ComputeStats(c)
	if st.CrossWordArcs == 0 {
		t.Error("composition lost all cross-word arcs")
	}
	for s := StateID(0); int(s) < c.NumStates(); s++ {
		for _, a := range c.Arcs(s) {
			if semiring.IsZero(a.W) {
				t.Fatalf("composed arc with infinite weight at state %d", s)
			}
		}
	}
}

func TestComposeMaxStates(t *testing.T) {
	am := buildFig3AM(t)
	lm := buildFig3LM(t)
	if _, err := Compose(am, lm, ComposeOptions{MaxStates: 3}); err == nil {
		t.Error("expected MaxStates overflow error")
	}
}

func TestComposeRequiresSortedLM(t *testing.T) {
	am := buildFig3AM(t)
	b := NewBuilder()
	s := b.AddState()
	b.SetStart(s)
	b.SetFinal(s, semiring.One)
	unsorted := b.MustBuild()
	if _, err := Compose(am, unsorted, ComposeOptions{}); err == nil {
		t.Error("expected error composing with unsorted LM")
	}
}

func TestConnectRemovesDeadStates(t *testing.T) {
	b := NewBuilder()
	s0 := b.AddState()
	s1 := b.AddState()
	s2 := b.AddState() // dead end: no path to final
	s3 := b.AddState() // unreachable
	b.SetStart(s0)
	b.AddArc(s0, Arc{In: 1, Next: s1})
	b.AddArc(s0, Arc{In: 2, Next: s2})
	b.AddArc(s3, Arc{In: 3, Next: s1})
	b.SetFinal(s1, semiring.One)
	g := b.MustBuild()
	c := Connect(g)
	if c.NumStates() != 2 {
		t.Fatalf("connected states = %d, want 2", c.NumStates())
	}
	if c.NumArcs() != 1 {
		t.Fatalf("connected arcs = %d, want 1", c.NumArcs())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConnectIdempotent(t *testing.T) {
	am := buildFig3AM(t)
	lm := buildFig3LM(t)
	c, err := Compose(am, lm, ComposeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c2 := Connect(c)
	if !Equal(c, c2) {
		t.Error("Connect is not idempotent on an already-connected machine")
	}
}

func TestIORoundTrip(t *testing.T) {
	for _, g := range []*WFST{buildFig3LM(t), buildFig3AM(t)} {
		var buf bytes.Buffer
		if err := Write(g, &buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(g, got) {
			t.Error("round-tripped WFST differs")
		}
		if got.InSorted() != g.InSorted() {
			t.Error("round trip lost inSorted flag")
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a wfst at all........"))); err == nil {
		t.Error("expected error on garbage input")
	}
}

func TestStats(t *testing.T) {
	g := buildFig3LM(t)
	st := ComputeStats(g)
	if st.States != 7 || st.Arcs != 15 {
		t.Errorf("stats = %+v", st)
	}
	if st.EpsInArcs != 6 {
		t.Errorf("EpsInArcs = %d, want 6 back-off arcs", st.EpsInArcs)
	}
	if st.SizeBytes != int64(15*ArcBytes+7*StateBytes) {
		t.Errorf("SizeBytes = %d", st.SizeBytes)
	}
	if st.MaxFanOut != 3 {
		t.Errorf("MaxFanOut = %d, want 3", st.MaxFanOut)
	}
}

// randomWFST builds a random transducer for property tests.
func randomWFST(rng *rand.Rand, nStates, maxArcs int) *WFST {
	b := NewBuilder()
	for i := 0; i < nStates; i++ {
		b.AddState()
	}
	b.SetStart(0)
	for s := 0; s < nStates; s++ {
		if rng.Intn(3) == 0 {
			b.SetFinal(StateID(s), semiring.Weight(rng.Float32()))
		}
		for a := rng.Intn(maxArcs + 1); a > 0; a-- {
			b.AddArc(StateID(s), Arc{
				In:   int32(rng.Intn(20)),
				Out:  int32(rng.Intn(5)),
				W:    semiring.Weight(rng.Float32() * 10),
				Next: StateID(rng.Intn(nStates)),
			})
		}
	}
	return b.MustBuild()
}

// Property: serialization round-trips arbitrary machines exactly.
func TestIORoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomWFST(rng, rng.Intn(30)+1, 5)
		if rng.Intn(2) == 0 {
			g.SortByInput()
		}
		var buf bytes.Buffer
		if err := Write(g, &buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		return err == nil && Equal(g, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: FindArc agrees with a straightforward scan on random sorted machines.
func TestFindArcProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomWFST(rng, rng.Intn(20)+1, 8)
		g.SortByInput()
		for s := StateID(0); int(s) < g.NumStates(); s++ {
			for in := int32(0); in < 20; in++ {
				if in == Epsilon {
					continue
				}
				idx, ok := g.FindArc(s, in, nil)
				// Reference: first occurrence by scan.
				ref, refOK := -1, false
				for i, a := range g.Arcs(s) {
					if a.In == in {
						ref, refOK = i, true
						break
					}
				}
				if ok != refOK || (ok && idx != ref) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Connect never grows the machine and always yields a valid one
// whose states are all useful.
func TestConnectProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomWFST(rng, rng.Intn(40)+1, 4)
		c := Connect(g)
		if c.Validate() != nil {
			return false
		}
		if c.NumStates() > g.NumStates() || c.NumArcs() > g.NumArcs() {
			return false
		}
		return Equal(Connect(c), c) // idempotent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFormatBytes(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		want string
	}{
		{512, "512 B"},
		{2048, "2.00 KB"},
		{3 << 20, "3.00 MB"},
		{5 << 30, "5.00 GB"},
	} {
		if got := FormatBytes(tc.n); got != tc.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}
