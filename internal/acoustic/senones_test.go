package acoustic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestScoreSenonesMatchesUtterance holds the per-frame entry to the eager
// kernel bit for bit, on both kernel paths: need lists of every length from
// 0 to all 123 senones (so the last tile call has every lane remainder,
// 1 to 16), in shuffled order with the model's senones drawn without
// repeats, over ordinary frames and the non-finite and fallback frames of
// nonFiniteSpecials. Entries outside need must be left untouched.
func TestScoreSenonesMatchesUtterance(t *testing.T) {
	for _, tile := range []bool{false, true} {
		t.Run(fmt.Sprintf("tile=%v", tile), func(t *testing.T) {
			useTile(t, tile)
			for _, dim := range []int{16, 13} {
				m := newModel(t, 50, 123, dim)
				g := NewGMMScorer(m)
				rng := rand.New(rand.NewSource(51))
				utt := append(randUtt(rng, 24, dim), nonFiniteUtt(rng, len(nonFiniteSpecials), dim)...)
				want := g.ScoreUtterance(utt)
				row := make([]float32, g.ScoreDim())
				const canary = float32(12345)
				for n := 0; n <= m.NumSenones; n++ {
					f := n % len(utt)
					need := make([]int32, m.NumSenones)
					for i, s := range rng.Perm(m.NumSenones) {
						need[i] = int32(s + 1)
					}
					need = need[:n]
					for s := range row {
						row[s] = canary
					}
					g.ScoreSenones(utt[f], need, row)
					in := make([]bool, len(row))
					for _, s := range need {
						in[s] = true
					}
					for s := range row {
						w := canary
						if in[s] {
							w = want[f][s]
						}
						if diff := diffBits([][]float32{{row[s]}}, [][]float32{{w}}); diff != "" {
							t.Fatalf("dim %d, %d senones, frame %d, senone %d: %s", dim, n, f, s, diff)
						}
					}
				}
			}
		})
	}
}

// TestUtteranceRowMatchesWhole is Row's contract: for every scorer kind
// and chunking, each row holds the whole-utterance value at every senone
// its need lists. The need lists come in runs of wide and narrow frames,
// so the GMM's average crosses eagerPercent both ways: it switches between
// per-senone scoring and eager blocks mid-chunk (the test counts both) and
// is served rows from inside a block. Some frames are asked twice, as a
// rescue retry asks. need is called at most once a Row, and never for a
// scorer that scored the chunk at Load. A second utterance after Reset
// matches its own whole rows.
func TestUtteranceRowMatchesWhole(t *testing.T) {
	m, scorers := windowScorers(t)
	rng := rand.New(rand.NewSource(26))
	utts := [][][]float32{randUtt(rng, 2*scoreBlock+5, m.Dim), randUtt(rng, 9, m.Dim)}
	draw := func(f int) []int32 {
		n := rng.Intn(m.NumSenones/4 + 1) // narrow
		if f/6%2 == 1 {
			n = m.NumSenones - n // wide
		}
		need := make([]int32, n)
		for i, s := range rng.Perm(m.NumSenones)[:n] {
			need[i] = int32(s + 1)
		}
		return need
	}
	var blockRows, laneRows int
	for _, sc := range append([]Scorer{chunkScorer{scorers[0]}}, scorers[0], scorers[1], scorers[2]) {
		_, isGMM := sc.(*GMMScorer)
		for _, chunk := range []int{1, 4, scoreBlock, scoreBlock + 1, 100} {
			u := NewUtterance(sc)
			for _, utt := range utts {
				u.Reset()
				want := sc.ScoreUtterance(utt)
				for base := 0; base < len(utt); base += chunk {
					end := min(base+chunk, len(utt))
					u.Load(utt[base:end])
					for i := 0; i < end-base; i++ {
						for try := 0; try < 1+rng.Intn(2); try++ {
							need, calls := draw(base+i), 0
							row := u.Row(i, func() []int32 { calls++; return need })
							if st, ok := u.st.(*gmmLaneState); ok {
								if i >= st.lo && i < st.hi {
									blockRows++
								} else {
									laneRows++
								}
							}
							if calls > 1 || (calls > 0 && !isGMM) {
								t.Fatalf("%s: need called %d times", sc.Name(), calls)
							}
							for _, s := range need {
								w := want[base+i][s]
								if math.Float32bits(row[s]) != math.Float32bits(w) {
									t.Fatalf("%s, chunk %d, frame %d, senone %d: %g != whole %g",
										sc.Name(), chunk, base+i, s, row[s], w)
								}
							}
						}
					}
				}
			}
			u.Close()
		}
	}
	if blockRows == 0 || laneRows == 0 {
		t.Errorf("the GMM served %d rows from eager blocks and %d scored per senone: want both", blockRows, laneRows)
	}
}

func BenchmarkScoreSenones(b *testing.B) {
	m := newModel(b, 30, 123, 16)
	utt := randUtt(rand.New(rand.NewSource(33)), 224, m.Dim)
	g := NewGMMScorer(m)
	row := make([]float32, g.ScoreDim())
	for _, n := range []int{16, 25, 32, 48, 64, 99, 123} {
		need := make([]int32, n)
		for i, s := range rand.New(rand.NewSource(1)).Perm(m.NumSenones)[:n] {
			need[i] = int32(s + 1)
		}
		b.Run(fmt.Sprintf("need=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, x := range utt {
					g.ScoreSenones(x, need, row)
				}
			}
		})
	}
}
