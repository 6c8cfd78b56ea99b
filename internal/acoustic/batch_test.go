package acoustic

import (
	"math/rand"
	"testing"
)

// windowScorers builds one scorer of each kind over a shared senone model.
func windowScorers(t *testing.T) (*SenoneModel, []windowScorer) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	m, err := NewSenoneModel(rng, 23, 12, 2.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return m, []windowScorer{
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
