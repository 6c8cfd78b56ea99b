package acoustic

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// setProcs sets GOMAXPROCS for the rest of the test.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// spyScorer wraps a window scorer to see which worker scores each block of
// a scoreWindows call: the caller scores against the state it passed in
// (caller), a helper against one of its own. One side yields the processor
// at each block it takes (yieldCaller picks which), so the other side gets
// to claim blocks even when every core is busy.
type spyScorer struct {
	windowScorer
	caller       windowState
	yieldCaller  bool
	last         *[]float32 // the call's last frame
	helperBlocks atomic.Int32
	lastByHelper atomic.Bool
}

func (s *spyScorer) scoreWindow(st windowState, frames, out [][]float32) {
	byCaller := st == s.caller
	if !byCaller {
		s.helperBlocks.Add(1)
		if s.last != nil && &frames[len(frames)-1] == s.last {
			s.lastByHelper.Store(true)
		}
	}
	if byCaller == s.yieldCaller {
		runtime.Gosched()
	}
	s.windowScorer.scoreWindow(st, frames, out)
}

// TestFanOutMatchesOracle is the fan-out's identity contract: at GOMAXPROCS 2
// and 4, ScoreUtterance over 1, 2, 5 (ragged) and 20 blocks and
// Utterance.Score in chunks of 3, 33 and 40 frames match the scalar oracle
// bit for bit, for every scorer. A spied GMM and DNN show helpers scoring
// blocks and their rows matching too; a spied RNN shows every block scored
// by the caller, in order.
func TestFanOutMatchesOracle(t *testing.T) {
	m, scorers := windowScorers(t)
	rng := rand.New(rand.NewSource(26))
	for _, procs := range []int{2, 4} {
		setProcs(t, procs)
		for _, sc := range scorers {
			for _, n := range []int{scoreBlock, 2 * scoreBlock, 4*scoreBlock + 3, 20 * scoreBlock} {
				utt := randUtt(rng, n, m.Dim)
				want := scalarScore(t, sc, utt)
				for round := 0; round < 3; round++ {
					if d := diffRows(sc.ScoreUtterance(utt), want); d != "" {
						t.Fatalf("GOMAXPROCS %d, %s, %d frames, round %d: %s", procs, sc.Name(), n, round, d)
					}
				}
			}
			utt := randUtt(rng, 20*scoreBlock+7, m.Dim)
			want := scalarScore(t, sc, utt)
			for _, chunk := range []int{3, 33, 40} {
				u := NewUtterance(sc)
				for base := 0; base < len(utt); base += chunk {
					end := min(base+chunk, len(utt))
					if d := diffRows(u.Score(utt[base:end]), want[base:end]); d != "" {
						t.Fatalf("GOMAXPROCS %d, %s, chunk %d, frames %d-%d: %s", procs, sc.Name(), chunk, base, end, d)
					}
				}
				u.Close()
			}

			out := newRows(len(utt), sc.ScoreDim())
			var helped int32
			for round := 0; round < 20; round++ {
				st := borrowWindow(sc)
				spy := &spyScorer{windowScorer: sc, caller: st, yieldCaller: true}
				scoreWindows(spy, st, utt, out)
				sc.windowPool().Put(st)
				if d := diffRows(out, want); d != "" {
					t.Fatalf("GOMAXPROCS %d, spied %s, round %d: %s", procs, sc.Name(), round, d)
				}
				helped += spy.helperBlocks.Load()
			}
			switch {
			case sc.framesIndependent() && helped == 0:
				t.Errorf("GOMAXPROCS %d, %s: no helper scored a block in 20 calls", procs, sc.Name())
			case !sc.framesIndependent() && helped != 0:
				t.Errorf("GOMAXPROCS %d, %s: helpers scored %d blocks of a sequential scorer", procs, sc.Name(), helped)
			}
		}
	}
}

// TestFanOutRelaysPanic: a frame of the wrong width in the last block
// panics whichever worker scores it, and the panic surfaces in the caller's
// goroutine, 200 calls a scorer; an unrecovered panic in a helper would end
// the test binary. Half the calls steer the last block to a helper, half
// to the caller, and both must have happened.
func TestFanOutRelaysPanic(t *testing.T) {
	setProcs(t, 2)
	m, scorers := windowScorers(t)
	rng := rand.New(rand.NewSource(27))
	utt := randUtt(rng, 5*scoreBlock+3, m.Dim)
	utt[len(utt)-1] = utt[len(utt)-1][:m.Dim-1]
	for _, sc := range scorers {
		if !sc.framesIndependent() {
			continue
		}
		out := newRows(len(utt), sc.ScoreDim())
		var byHelper int
		for run := 0; run < 200; run++ {
			st := borrowWindow(sc)
			spy := &spyScorer{windowScorer: sc, caller: st, yieldCaller: run%2 == 0, last: &utt[len(utt)-1]}
			p := func() (p any) {
				defer func() { p = recover() }()
				scoreWindows(spy, st, utt, out)
				return nil
			}()
			if _, ok := p.(runtime.Error); !ok {
				t.Fatalf("%s run %d: recovered %v, want the short frame's runtime error", sc.Name(), run, p)
			}
			if spy.lastByHelper.Load() {
				byHelper++
			}
		}
		t.Logf("%s: a helper scored the bad block in %d of 200 calls", sc.Name(), byHelper)
		if byHelper == 0 || byHelper == 200 {
			t.Errorf("%s: a helper scored the bad block in %d of 200 calls, want both workers to have", sc.Name(), byHelper)
		}
	}
}

// TestFanOutAllocs: the fan-out allocates nothing once warm, so a
// ScoreUtterance call still allocates its result and nothing else, and a
// warm Utterance.Score nothing at all. testing.AllocsPerRun runs at
// GOMAXPROCS 1, where no call fans out, so this counts the MemStats.Mallocs
// delta at GOMAXPROCS 2 instead, as an integer mean per call like
// AllocsPerRun's.
func TestFanOutAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under -race")
	}
	setProcs(t, 2)
	m, scorers := windowScorers(t)
	rng := rand.New(rand.NewSource(28))
	utt := randUtt(rng, 20*scoreBlock, m.Dim)
	for _, sc := range scorers {
		for _, n := range []int{33, len(utt)} {
			if allocs := mallocsPerCall(50, func() { sc.ScoreUtterance(utt[:n]) }); allocs > 2 {
				t.Errorf("%s ScoreUtterance(%d frames) allocates %d objects/call at GOMAXPROCS 2, want <= 2", sc.Name(), n, allocs)
			}
		}
		u := NewUtterance(sc)
		if allocs := mallocsPerCall(50, func() { u.Score(utt[:33]); u.Score(utt) }); allocs != 0 {
			t.Errorf("%s Utterance.Score allocates %d objects/call at GOMAXPROCS 2, want 0", sc.Name(), allocs)
		}
		u.Close()
	}
}

// mallocsPerCall is f's mean heap allocations per call over runs calls,
// after a few warm-up calls start the helpers and fill the pools.
func mallocsPerCall(runs int, f func()) uint64 {
	for i := 0; i < 5; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}
