package acoustic

import (
	"math/rand"
	"testing"
)

// batchScorers builds one scorer of each kind over a shared senone model.
func batchScorers(t *testing.T) (*SenoneModel, []BatchScorer) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	m, err := NewSenoneModel(rng, 23, 12, 2.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return m, []BatchScorer{
		NewGMMScorer(m),
		NewDNNScorer(m, rand.New(rand.NewSource(8)), 64, 3),
		NewRNNScorer(m, rand.New(rand.NewSource(9)), 64),
	}
}

// randUtt synthesizes a random utterance of n frames.
func randUtt(rng *rand.Rand, n, dim int) [][]float32 {
	u := make([][]float32, n)
	for f := range u {
		row := make([]float32, dim)
		for d := range row {
			row[d] = rng.Float32()*4 - 2
		}
		u[f] = row
	}
	return u
}

// raggedLens are utterance lengths around the kernel's tile and block edges:
// empty, below/at/above one dot4 quad, and below/at/above one and two
// scoreBlocks.
var raggedLens = []int{0, 1, 3, 4, 5, scoreBlock - 1, scoreBlock, scoreBlock + 1, 2*scoreBlock + 1}

// TestScoreStepMatchesUtterance is the batched-scoring determinism contract:
// for every scorer kind, rows produced by lockstep ScoreStep calls over
// several lanes are float32-bitwise-identical to the rows the scalar oracle
// produces for each lane's frames alone — including the recurrent RNN state
// and lanes of different lengths (idle lanes are skipped, not advanced) —
// and so are the rows of the blocked ScoreUtterance, at every ragged length.
func TestScoreStepMatchesUtterance(t *testing.T) {
	m, scorers := batchScorers(t)
	rng := rand.New(rand.NewSource(10))
	lens := append([]int{17, 5, 11, 1}, raggedLens...)
	utts := make([][][]float32, len(lens))
	for i, n := range lens {
		utts[i] = randUtt(rng, n, m.Dim)
	}
	for _, sc := range scorers {
		t.Run(sc.Name(), func(t *testing.T) {
			// Solo reference, one utterance at a time.
			want := make([][][]float32, len(utts))
			for i, u := range utts {
				want[i] = scalarScore(t, sc, u)
				if d := diffRows(sc.ScoreUtterance(u), want[i]); d != "" {
					t.Fatalf("%s ScoreUtterance, %d frames: %s", sc.Name(), len(u), d)
				}
			}
			// Batched: all lanes in lockstep; shorter lanes go idle (nil).
			states := make([]LaneState, len(utts))
			frames := make([][]float32, len(utts))
			out := make([][]float32, len(utts))
			for i := range utts {
				states[i] = sc.NewLaneState()
				states[i].Reset()
				out[i] = make([]float32, sc.ScoreDim())
			}
			maxLen := 0
			for _, u := range utts {
				if len(u) > maxLen {
					maxLen = len(u)
				}
			}
			for f := 0; f < maxLen; f++ {
				for i, u := range utts {
					frames[i] = nil
					if f < len(u) {
						frames[i] = u[f]
					}
				}
				sc.ScoreStep(states, frames, out)
				for i := range utts {
					if frames[i] == nil {
						continue
					}
					ref := want[i][f]
					if len(out[i]) != len(ref) {
						t.Fatalf("lane %d frame %d: row len %d, want %d", i, f, len(out[i]), len(ref))
					}
					for s := range ref {
						if out[i][s] != ref[s] {
							t.Fatalf("%s lane %d frame %d senone %d: batched %g != solo %g",
								sc.Name(), i, f, s, out[i][s], ref[s])
						}
					}
				}
			}
		})
	}
}

// TestLaneStateReset proves a recycled lane slot behaves like a fresh one:
// scoring utterance A, resetting, then scoring utterance B yields B's solo
// rows exactly (no state bleed across utterances sharing a slot).
func TestLaneStateReset(t *testing.T) {
	m, scorers := batchScorers(t)
	rng := rand.New(rand.NewSource(11))
	a := randUtt(rng, 9, m.Dim)
	b := randUtt(rng, 7, m.Dim)
	for _, sc := range scorers {
		t.Run(sc.Name(), func(t *testing.T) {
			want := scalarScore(t, sc, b)
			st := []LaneState{sc.NewLaneState()}
			st[0].Reset()
			out := [][]float32{make([]float32, sc.ScoreDim())}
			for _, x := range a {
				sc.ScoreStep(st, [][]float32{x}, out)
			}
			st[0].Reset()
			for f, x := range b {
				sc.ScoreStep(st, [][]float32{x}, out)
				for s := range want[f] {
					if out[0][s] != want[f][s] {
						t.Fatalf("%s frame %d senone %d after reset: %v != %v",
							sc.Name(), f, s, out[0][s], want[f][s])
					}
				}
			}
		})
	}
}

// TestScoreStepAllocs: the dense step must not allocate — it is the inner
// loop of the lane group's 0-allocs/frame contract.
func TestScoreStepAllocs(t *testing.T) {
	m, scorers := batchScorers(t)
	rng := rand.New(rand.NewSource(12))
	utt := randUtt(rng, 4, m.Dim)
	for _, sc := range scorers {
		t.Run(sc.Name(), func(t *testing.T) {
			states := []LaneState{sc.NewLaneState(), sc.NewLaneState()}
			frames := [][]float32{utt[0], utt[1]}
			out := [][]float32{make([]float32, sc.ScoreDim()), make([]float32, sc.ScoreDim())}
			allocs := testing.AllocsPerRun(50, func() {
				sc.ScoreStep(states, frames, out)
			})
			if allocs != 0 {
				t.Fatalf("%s ScoreStep allocates %.1f objects/call, want 0", sc.Name(), allocs)
			}
		})
	}
}
