package decoder

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/wfst"
)

// TestOffsetTableMatchesFindArc drives find over an LM with twice as many
// distinct (state, word) pairs as the table has entries and checks every
// answer against wfst.FindArc — whether the fetch hit, missed a cold slot,
// or missed a slot a conflicting pair had just overwritten. That is the
// whole correctness contract of the table: it may lose any entry at any time
// and the answer does not change.
func TestOffsetTableMatchesFindArc(t *testing.T) {
	const states, words = 64, 2 << memoBits / 64
	lb := wfst.NewBuilder()
	for s := 0; s < states; s++ {
		lb.AddState()
	}
	lb.SetStart(0)
	for s := 0; s < states; s++ {
		// Odd states carry only every other word, so some fetches find
		// nothing and must keep finding nothing.
		for w := 1; w <= words; w += 1 + s%2 {
			lb.AddArc(wfst.StateID(s), wfst.Arc{In: int32(w), Out: int32(w), Next: wfst.StateID((s + w) % states)})
		}
	}
	lm := lb.MustBuild()
	lm.SortByInput()
	ab := wfst.NewBuilder()
	ab.SetStart(ab.AddState())
	d, err := NewOnTheFly(ab.MustBuild(), lm, Config{})
	if err != nil {
		t.Fatal(err)
	}

	var st Stats
	check := func(s wfst.StateID, w int32) (hit bool) {
		t.Helper()
		hits := st.MemoHits
		got, gotOK := d.find(s, w, &st)
		want, wantOK := lm.FindArc(s, w, nil)
		if got != want || gotOK != wantOK {
			t.Fatalf("find(%d, %d) = %d, %v; FindArc says %d, %v", s, w, got, gotOK, want, wantOK)
		}
		return st.MemoHits > hits
	}

	// The empty slot is arc 0 (index+1 encoding), not a stored index 0: a
	// cold table must miss even on the pair whose fields are all zero.
	if check(0, 0) {
		t.Fatal("cold table hit on the zero entry")
	}

	rng := rand.New(rand.NewSource(7))
	fetches := 1 // the one above
	for i := 0; i < 20*states*words; i++ {
		check(wfst.StateID(rng.Intn(states)), int32(1+rng.Intn(words)))
		fetches++
	}
	if st.MemoHits == 0 || st.MemoMisses <= states*words {
		t.Fatalf("stream exercised no conflicts: %d hits, %d misses over %d pairs", st.MemoHits, st.MemoMisses, states*words)
	}
	if st.MemoHits+st.MemoMisses != int64(fetches) {
		t.Fatalf("%d hits + %d misses != %d fetches", st.MemoHits, st.MemoMisses, fetches)
	}

	// Overwrite on conflict, explicitly: two present pairs that share a slot
	// evict each other, and each is a hit only straight after itself.
	type pair struct {
		s wfst.StateID
		w int32
	}
	var p1, p2 pair
	seen := map[uint64]pair{}
	for s := 0; s < states && p2.w == 0; s += 2 { // even states carry every word
		for w := int32(1); w <= words; w++ {
			p := pair{wfst.StateID(s), w}
			if q, ok := seen[memoSlot(p.s, p.w)]; ok {
				p1, p2 = q, p
				break
			}
			seen[memoSlot(p.s, p.w)] = p
		}
	}
	if p2.w == 0 {
		t.Fatal("no conflicting pair in the fixture")
	}
	s1, w1, s2, w2 := p1.s, p1.w, p2.s, p2.w
	check(s1, w1)
	if !check(s1, w1) {
		t.Fatal("repeat fetch missed")
	}
	if check(s2, w2) {
		t.Fatal("conflicting pair hit the other pair's entry")
	}
	if !check(s2, w2) {
		t.Fatal("conflicting pair did not take the slot")
	}
	if check(s1, w1) {
		t.Fatal("overwritten pair still hit")
	}

	d.ResetMemo()
	if check(s1, w1) {
		t.Fatal("ResetMemo left an entry behind")
	}
}

// TestMemoWideLabel: the table stores state and word whole, so labels of any
// width are exact. Under a 20-bit packed word field (state 0, word 1<<20|5)
// and (state 1, word 5) were one key, and the second fetch below would have
// taken the first one's arc index — the wrong arc, weight and next state.
func TestMemoWideLabel(t *testing.T) {
	const wide = 1<<20 | 5
	ab := wfst.NewBuilder()
	ab.SetStart(ab.AddState())
	ab.SetFinal(0, 0)
	ab.AddArc(0, wfst.Arc{In: 1, Out: wide, Next: 0})
	ab.AddArc(0, wfst.Arc{In: 2, Out: 5, Next: 0})
	lb := wfst.NewBuilder()
	lb.SetStart(lb.AddState())
	lb.AddState()
	lb.SetFinal(0, 0)
	lb.AddArc(0, wfst.Arc{In: wide, Out: wide, Next: 1})
	lb.AddArc(1, wfst.Arc{In: 3, Out: 3, W: 7, Next: 1})
	lb.AddArc(1, wfst.Arc{In: 5, Out: 5, W: 1, Next: 0})
	am, lm := ab.MustBuild(), lb.MustBuild()
	lm.SortByInput()

	scores := [][]float32{{0, 10, 0}, {0, 0, 10}}
	var costs []float32
	for _, lookup := range []LookupKind{LookupMemo, LookupBinary} {
		d, err := NewOnTheFly(am, lm, Config{Lookup: lookup})
		if err != nil {
			t.Fatalf("%v: %v", lookup, err)
		}
		res := d.Decode(scores)
		if !res.ReachedFinal || !slices.Equal(res.Words, []int32{wide, 5}) {
			t.Fatalf("%v decoded %v (final %v), want [%d 5]", lookup, res.Words, res.ReachedFinal, wide)
		}
		costs = append(costs, float32(res.Cost))
	}
	if costs[0] != costs[1] {
		t.Errorf("memo cost %v, binary cost %v", costs[0], costs[1])
	}
}

// TestMemoColdEqualsWarm: a decoder whose table is cleared before every
// utterance produces the transcripts and costs of one that keeps it warm —
// and only the warm one gets cheaper.
func TestMemoColdEqualsWarm(t *testing.T) {
	f := getFixture(t, 42)
	warm, _ := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{})
	cold, _ := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{})
	var warmProbes, coldProbes int64
	for pass := 0; pass < 2; pass++ {
		for i, sc := range f.scores {
			cold.ResetMemo()
			w, c := warm.Decode(sc), cold.Decode(sc)
			if !slices.Equal(w.Words, c.Words) || w.Cost != c.Cost {
				t.Fatalf("pass %d utt %d: warm %v (%v) vs cold %v (%v)", pass, i, w.Words, w.Cost, c.Words, c.Cost)
			}
			warmProbes += w.Stats.LMProbes
			coldProbes += c.Stats.LMProbes
		}
	}
	if warmProbes >= coldProbes {
		t.Errorf("warm table probed %d times, cold %d: persistence bought nothing", warmProbes, coldProbes)
	}
}
