package acoustic

import (
	"math/rand"
	"sync"
	"testing"
)

// TestScoreWindowMatchesUtterance is the block kernel's determinism contract:
// for every scorer kind and a sweep of window widths — including widths that
// split the utterance unevenly and a width larger than the utterance — the
// rows produced by consecutive scoreWindow calls are float32-bitwise-
// identical to the scalar oracle's over the same frames, and so are the
// rows of ScoreUtterance (the same kernel at width scoreBlock). The RNN case
// proves the recurrence carries across window boundaries exactly. The
// lengths are the edges of raggedLens plus a few in between.
func TestScoreWindowMatchesUtterance(t *testing.T) {
	m, scorers := windowScorers(t)
	rng := rand.New(rand.NewSource(20))
	for _, n := range append([]int{19, 17, 5, 11, 1}, raggedLens...) {
		testScoreWindowMatches(t, scorers, randUtt(rng, n, m.Dim))
	}
}

func testScoreWindowMatches(t *testing.T, scorers []windowScorer, utt [][]float32) {
	for _, sc := range scorers {
		want := scalarScore(t, sc, utt)
		if d := diffRows(sc.ScoreUtterance(utt), want); d != "" {
			t.Fatalf("%s ScoreUtterance, %d frames: %s", sc.Name(), len(utt), d)
		}
		for _, width := range []int{1, 3, 4, 8, 32} {
			st := sc.newWindowState(width)
			st.Reset()
			out := make([][]float32, len(utt))
			for f := range out {
				out[f] = make([]float32, sc.ScoreDim())
			}
			for base := 0; base < len(utt); base += width {
				end := min(base+width, len(utt))
				sc.scoreWindow(st, utt[base:end], out[base:end])
			}
			for f := range want {
				for s := range want[f] {
					if out[f][s] != want[f][s] {
						t.Fatalf("%s width %d frame %d senone %d: window %g != solo %g",
							sc.Name(), width, f, s, out[f][s], want[f][s])
					}
				}
			}
		}
	}
}

// TestWindowStateReset proves a recycled window state behaves like a fresh
// one: scoring utterance A through windows, resetting, then scoring
// utterance B yields B's solo rows exactly.
func TestWindowStateReset(t *testing.T) {
	m, scorers := windowScorers(t)
	rng := rand.New(rand.NewSource(21))
	a := randUtt(rng, 9, m.Dim)
	b := randUtt(rng, 7, m.Dim)
	for _, sc := range scorers {
		want := scalarScore(t, sc, b)
		st := sc.newWindowState(4)
		st.Reset()
		out := make([][]float32, 4)
		for f := range out {
			out[f] = make([]float32, sc.ScoreDim())
		}
		for base := 0; base < len(a); base += 4 {
			end := min(base+4, len(a))
			sc.scoreWindow(st, a[base:end], out[:end-base])
		}
		st.Reset()
		for base := 0; base < len(b); base += 4 {
			end := min(base+4, len(b))
			sc.scoreWindow(st, b[base:end], out[:end-base])
			for f := base; f < end; f++ {
				for s := range want[f] {
					if out[f-base][s] != want[f][s] {
						t.Fatalf("%s frame %d senone %d after reset: %v != %v",
							sc.Name(), f, s, out[f-base][s], want[f][s])
					}
				}
			}
		}
	}
}

// TestScoreWindowAllocs: window scoring must not allocate — it is every
// ScoreUtterance block, inside the one-slab-per-utterance allocation
// contract, and every block of a warm Utterance chunk.
func TestScoreWindowAllocs(t *testing.T) {
	m, scorers := windowScorers(t)
	rng := rand.New(rand.NewSource(22))
	utt := randUtt(rng, 8, m.Dim)
	for _, sc := range scorers {
		st := sc.newWindowState(len(utt))
		out := make([][]float32, len(utt))
		for f := range out {
			out[f] = make([]float32, sc.ScoreDim())
		}
		allocs := testing.AllocsPerRun(50, func() {
			st.Reset()
			sc.scoreWindow(st, utt, out)
		})
		if allocs != 0 {
			t.Fatalf("%s scoreWindow allocates %.1f objects/call, want 0", sc.Name(), allocs)
		}
		// Once an Utterance has seen its widest chunk, its rows and window
		// state are reused.
		u := NewUtterance(sc)
		u.Score(utt)
		allocs = testing.AllocsPerRun(50, func() {
			u.Score(utt[:3])
			u.Score(utt)
		})
		u.Close()
		if allocs != 0 {
			t.Fatalf("%s Utterance.Score allocates %.1f objects/call, want 0", sc.Name(), allocs)
		}
	}
}

// TestScoreUtteranceAllocs: a ScoreUtterance call allocates its result (the
// row headers and one slab) and borrows everything else from the scorer's
// pool, so the count does not grow with the utterance.
func TestScoreUtteranceAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under -race")
	}
	m, scorers := windowScorers(t)
	rng := rand.New(rand.NewSource(23))
	for _, sc := range scorers {
		for _, n := range []int{3, 2*scoreBlock + 1, 20 * scoreBlock} {
			utt := randUtt(rng, n, m.Dim)
			allocs := testing.AllocsPerRun(20, func() {
				sc.ScoreUtterance(utt)
			})
			if allocs > 2 {
				t.Errorf("%s ScoreUtterance(%d frames) allocates %.1f objects/call, want <= 2", sc.Name(), n, allocs)
			}
		}
	}
}

// TestScoreUtteranceConcurrent is the goroutine-safety contract on Scorer:
// 8 goroutines score different utterances through one scorer instance at
// once and each gets exactly the scalar oracle's rows. Run under -race.
func TestScoreUtteranceConcurrent(t *testing.T) {
	m, scorers := windowScorers(t)
	rng := rand.New(rand.NewSource(24))
	const workers, rounds = 8, 20
	utts := make([][][]float32, workers)
	for i := range utts {
		utts[i] = randUtt(rng, scoreBlock+3*i+1, m.Dim)
	}
	for _, sc := range scorers {
		var wg sync.WaitGroup
		for _, u := range utts {
			u, want := u, scalarScore(t, sc, u)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if d := diffRows(sc.ScoreUtterance(u), want); d != "" {
						t.Errorf("%s, %d frames, round %d: %s", sc.Name(), len(u), r, d)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// chunkScorer wraps a scorer so it is not a windowScorer: Utterance then
// scores each chunk as its own ScoreUtterance call.
type chunkScorer struct{ Scorer }

// TestUtteranceMatchesWhole is the chunked-scoring contract: for every
// scorer kind and every chunk size — single frames, sizes that split the
// utterance across block edges, one chunk larger than the whole — the rows
// Utterance.Score returns chunk by chunk are bitwise-identical to the scalar
// oracle over the whole utterance, so the RNN's recurrence carries across
// chunks exactly. A recycled window state behaves like a fresh one (the
// second utterance reuses the first one's pooled state). A scorer that is
// not a window scorer scores each chunk alone.
func TestUtteranceMatchesWhole(t *testing.T) {
	m, scorers := windowScorers(t)
	rng := rand.New(rand.NewSource(25))
	utts := [][][]float32{randUtt(rng, 2*scoreBlock+5, m.Dim), randUtt(rng, 9, m.Dim)}
	for _, sc := range scorers {
		for _, chunk := range []int{1, 2, 3, 4, scoreBlock, scoreBlock + 1, 25, 100} {
			for _, utt := range utts {
				want := scalarScore(t, sc, utt)
				u := NewUtterance(sc)
				for base := 0; base < len(utt); base += chunk {
					end := min(base+chunk, len(utt))
					if d := diffRows(u.Score(utt[base:end]), want[base:end]); d != "" {
						t.Fatalf("%s, chunk %d, frames %d-%d: %s", sc.Name(), chunk, base, end, d)
					}
				}
				u.Close()
				u.Close()
			}
		}
		// The fallback: each chunk is its own utterance.
		utt := utts[0]
		u := NewUtterance(chunkScorer{sc})
		for base := 0; base < len(utt); base += 4 {
			end := min(base+4, len(utt))
			if d := diffRows(u.Score(utt[base:end]), scalarScore(t, sc, utt[base:end])); d != "" {
				t.Fatalf("%s fallback, frames %d-%d: %s", sc.Name(), base, end, d)
			}
		}
		u.Close()
	}
}
