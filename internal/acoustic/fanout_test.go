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
	inFlight     atomic.Int32 // scoreWindow calls running now
}

func (s *spyScorer) scoreWindow(st windowState, frames, out [][]float32) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
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
// goroutine, 200 calls a scorer and path; an unrecovered panic in a helper
// would end the test binary. Half the calls steer the last block to a
// helper, half to the caller, and both must have happened.
//
// Two paths: a scoreWindows call (ScoreUtterance's), and an Utterance read
// row by row through Row, whose job is the one a DNN's search reads. On the
// Row path every row of the good blocks comes back with the oracle's bits,
// the panic surfaces from the first Row of the bad block, after every
// helper has left the job, and Close after it neither panics nor waits.
func TestFanOutRelaysPanic(t *testing.T) {
	setProcs(t, 2)
	m, scorers := windowScorers(t)
	rng := rand.New(rand.NewSource(27))
	utt := randUtt(rng, 5*scoreBlock+3, m.Dim)
	utt[len(utt)-1] = utt[len(utt)-1][:m.Dim-1]
	bad := 5 * scoreBlock // the bad block's first frame
	for _, sc := range scorers {
		if !sc.framesIndependent() {
			continue
		}
		want := scalarScore(t, sc, utt[:bad])
		out := newRows(len(utt), sc.ScoreDim())
		for _, path := range []string{"scoreWindows", "Row"} {
			var byHelper int
			for run := 0; run < 200; run++ {
				spy := &spyScorer{windowScorer: sc, yieldCaller: run%2 == 0, last: &utt[len(utt)-1]}
				var p any
				switch path {
				case "scoreWindows":
					st := borrowWindow(sc)
					spy.caller = st
					p = recovered(func() { scoreWindows(spy, st, utt, out) })
				case "Row":
					u := NewUtterance(spy)
					spy.caller = u.st
					u.Load(utt)
					i := 0
					p = recovered(func() {
						for ; i < len(utt); i++ {
							if d := diffRows([][]float32{u.Row(i, nil)}, want[i:i+1]); d != "" {
								t.Fatalf("%s run %d, row %d: %s", sc.Name(), run, i, d)
							}
						}
					})
					if i != bad {
						t.Fatalf("%s run %d: Row(%d) panicked, want the bad block's first row %d", sc.Name(), run, i, bad)
					}
					if n := spy.inFlight.Load(); n != 0 {
						t.Fatalf("%s run %d: %d blocks still scoring when Row panicked", sc.Name(), run, n)
					}
					if q := recovered(u.Close); q != nil {
						t.Fatalf("%s run %d: Close after the panic panicked: %v", sc.Name(), run, q)
					}
				}
				if _, ok := p.(runtime.Error); !ok {
					t.Fatalf("%s %s run %d: recovered %v, want the short frame's runtime error", sc.Name(), path, run, p)
				}
				if spy.lastByHelper.Load() {
					byHelper++
				}
			}
			t.Logf("%s %s: a helper scored the bad block in %d of 200 calls", sc.Name(), path, byHelper)
			if byHelper == 0 || byHelper == 200 {
				t.Errorf("%s %s: a helper scored the bad block in %d of 200 calls, want both workers to have", sc.Name(), path, byHelper)
			}
		}
	}
}

// recovered runs f and returns what it panicked with, nil if nothing.
func recovered(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// TestUtteranceCloseAfterEarlyStop: a search that stops reading a DNN's
// chunk early — a cancelled context, or a search fault — leaves the job's
// other blocks to the helpers, and Close (or the next Load) must end the
// job without panicking and return only once no helper scores for the
// utterance: no scoreWindow call is running then, and the test's writes to
// every row after it are what -race would flag if a helper still wrote one.
// 100 runs at GOMAXPROCS 2 and 4, stopping after 0 to 2 blocks' rows.
func TestUtteranceCloseAfterEarlyStop(t *testing.T) {
	m, scorers := windowScorers(t)
	d := scorers[1]
	utt := randUtt(rand.New(rand.NewSource(29)), 20*scoreBlock+5, m.Dim)
	want := scalarScore(t, d, utt)
	for _, procs := range []int{2, 4} {
		setProcs(t, procs)
		for run := 0; run < 100; run++ {
			spy := &spyScorer{windowScorer: d, yieldCaller: run%2 == 0}
			u := NewUtterance(spy)
			spy.caller = u.st
			read := run % (2*scoreBlock + 1)
			stop := u.Close
			if run%3 == 0 { // the next chunk's Load ends the job too
				stop = func() { u.Load(utt[:1]); u.Close() }
			}
			u.Load(utt)
			for i := 0; i < read; i++ {
				if diff := diffRows([][]float32{u.Row(i, nil)}, want[i:i+1]); diff != "" {
					t.Fatalf("GOMAXPROCS %d run %d, row %d: %s", procs, run, i, diff)
				}
			}
			rows := u.rows
			if p := recovered(stop); p != nil {
				t.Fatalf("GOMAXPROCS %d run %d: Close after %d rows panicked: %v", procs, run, read, p)
			}
			if n := spy.inFlight.Load(); n != 0 {
				t.Fatalf("GOMAXPROCS %d run %d: %d blocks still scoring after Close", procs, run, n)
			}
			for _, r := range rows {
				clear(r)
			}
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

// TestUtteranceRowAllocs: a warm DNN Utterance read through Row allocates
// nothing at GOMAXPROCS 2, where helpers score its blocks — a chunk read to
// its end, then one the search leaves after its first row, ended by the
// next Load.
func TestUtteranceRowAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under -race")
	}
	setProcs(t, 2)
	m, scorers := windowScorers(t)
	utt := randUtt(rand.New(rand.NewSource(30)), 20*scoreBlock, m.Dim)
	u := NewUtterance(scorers[1])
	cycle := func() {
		u.Reset()
		u.Load(utt)
		for i := range utt {
			u.Row(i, nil)
		}
		u.Load(utt[:33])
		u.Row(0, nil)
		u.Load(utt[:3])
	}
	if allocs := mallocsPerCall(50, cycle); allocs != 0 {
		t.Errorf("a warm DNN Load/Row cycle allocates %d objects at GOMAXPROCS 2, want 0", allocs)
	}
	u.Close()
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
