package decoder

import (
	"math/bits"
	"sort"
	"testing"
	"time"

	"repro/internal/task"
)

// TestCappedSearchMatchesReference is the equality half of the search-kernel
// gate, on a fixture small enough to run everywhere — under -short and under
// the race detector, where TestSearchKernelRatio is skipped: a 3 000-word task
// at the search_wide beam with MaxActive lowered until the cap fires on a
// good share of the frames, the one regime the 24-to-40-word differential
// fixtures never reach with more than a dozen tokens. The tokenStore decode
// and the map reference must agree on words, word ends, cost, every search
// counter and every per-frame frontier in iteration order.
func TestCappedSearchMatchesReference(t *testing.T) {
	tk := cappedTask(t)
	cfg := cappedConfig
	// One decoder per side: the offset memo persists across decodes, and a
	// shared one would hand the second side the first side's fills.
	store, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	capped, seen := 0, 0
	for _, u := range tk.Test {
		sc := tk.Scorer.ScoreUtterance(u.Frames)
		storeSnaps, refSnaps := captureFrames(store), captureFrames(ref)
		got, want := store.Decode(sc), ref.DecodeReference(sc)
		if got.Cost != want.Cost || !equalInt32s(got.Words, want.Words) || !equalInt32s(got.WordEnds, want.WordEnds) {
			t.Errorf("store %v/%v/%v, reference %v/%v/%v", got.Words, got.WordEnds, got.Cost, want.Words, want.WordEnds, want.Cost)
		}
		if gs, ws := got.Stats.Search(), want.Stats.Search(); gs != ws {
			t.Errorf("stats: store %+v, reference %+v", gs, ws)
		}
		compareSnaps(t, *storeSnaps, *refSnaps)
		for _, snap := range *storeSnaps {
			seen++
			if len(snap.keys) > cfg.MaxActive {
				capped++
			}
		}
	}
	t.Logf("cap pending on %d of %d frontiers", capped, seen)
	if capped*20 < seen {
		t.Fatalf("fixture left the regime: cap pending on %d of %d frontiers, want >= 5%%", capped, seen)
	}
}

// cappedConfig is the search_wide beam with MaxActive lowered until the cap
// fires on cappedTask.
var cappedConfig = Config{Beam: 85, MaxActive: 600, PreemptivePruning: true}

// cappedTask builds the 3 000-word fixture of TestCappedSearchMatchesReference
// and TestSearchDigest.
func cappedTask(t *testing.T) *task.Task {
	t.Helper()
	tk, err := task.Build(task.Spec{
		Name:           "search-capped",
		Vocab:          3000,
		Phones:         40,
		TrainSentences: 12000,
		TestUtterances: 2,
		LMMinCount:     2,
		NoiseStd:       2.1,
		Seed:           20170817,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

// TestSearchKernelRatio is the search-side sibling of the acoustic package's
// TestScoreKernelRatio: it holds the tokenStore search's speed where CI can
// see it, as a same-run ratio against the map oracle (DecodeReference), the
// only form of a time gate that survives a shared host. The fixture is a
// 12 000-word task at the search_wide beam: ~630 live tokens a frame, the
// MaxActive cap firing on about a fifth of the frames, one AM state in ten
// with a non-emitting arc — the regime the bucketed cap, the frame-sized
// probe table and the epsilon-state index were written for. Measured
// 7.2-7.5x; with a selection over the whole frontier under the cap, a probe
// table cleared at its high-water size twice a frame and rebuilt after every
// prune, the same test measured 5.2-5.6x. The floor sits a quarter under the
// first and at the top of the second, so a busy host does not trip it and
// losing that work does. TestCappedSearchMatchesReference is the equality
// half of this gate for the jobs that skip the timing.
func TestSearchKernelRatio(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("timing gate: skipped under -short and -race")
	}
	const floor = 5.5
	tk, err := task.Build(task.Spec{
		Name:           "search-ratio",
		Vocab:          12000,
		Phones:         40,
		TrainSentences: 60000,
		TestUtterances: 2,
		LMMinCount:     2,
		NoiseStd:       2.1,
		Seed:           20170817,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Beam: 85, PreemptivePruning: true}
	// One decoder per side: the offset memo persists across decodes, and a
	// shared one would hand the second side the first side's fills.
	store, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var scores [][][]float32
	frames := 0
	for _, u := range tk.Test {
		scores = append(scores, tk.Scorer.ScoreUtterance(u.Frames))
		frames += len(u.Frames)
	}

	// The regime, asserted so the gate cannot drift onto an easy fixture: the
	// warm-up pass doubles as the equality check and counts capped frames.
	capped, seen := 0, 0
	store.frameHook = func(_ int, keys []uint64, _ []token) {
		seen++
		if len(keys) > store.cfg.MaxActive {
			capped++
		}
	}
	for _, sc := range scores {
		got, want := store.Decode(sc), ref.DecodeReference(sc)
		if got.Cost != want.Cost || !equalInt32s(got.Words, want.Words) || got.Stats.Search() != want.Stats.Search() {
			t.Fatalf("store and reference disagree: %v/%v vs %v/%v", got.Words, got.Cost, want.Words, want.Cost)
		}
	}
	store.frameHook = nil
	epsStates := 0
	for _, w := range tk.AM.G.EpsInStates() {
		epsStates += bits.OnesCount64(w)
	}
	if capped*20 < seen || epsStates*4 > tk.AM.G.NumStates() {
		t.Fatalf("fixture left the regime: cap pending on %d of %d frontiers (want >= 5%%), %d of %d AM states have an epsilon arc (want <= 25%%)",
			capped, seen, epsStates, tk.AM.G.NumStates())
	}

	// The two sides take turns round by round, so a busy stretch of the host
	// lands on both.
	const rounds = 5
	timeIt := func(decode func([][]float32) *Result) time.Duration {
		start := time.Now()
		for _, sc := range scores {
			decode(sc)
		}
		return time.Since(start) / time.Duration(frames)
	}
	var refs, stores [rounds]time.Duration
	for i := 0; i < rounds; i++ {
		refs[i] = timeIt(ref.DecodeReference)
		stores[i] = timeIt(store.Decode)
	}
	median := func(d [rounds]time.Duration) time.Duration {
		sort.Slice(d[:], func(i, j int) bool { return d[i] < d[j] })
		return d[rounds/2]
	}
	refT, storeT := median(refs), median(stores)
	ratio := float64(refT) / float64(storeT)
	t.Logf("map reference %v/frame, tokenStore %v/frame, %.2fx (cap pending on %d of %d frontiers, %d of %d AM states with an epsilon arc)",
		refT, storeT, ratio, capped, seen, epsStates, tk.AM.G.NumStates())
	if ratio < floor {
		t.Errorf("tokenStore search is %.2fx the map reference, want >= %.2fx", ratio, floor)
	}
}
