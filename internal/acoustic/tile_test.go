package acoustic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cpuAVX2 is what the probe found, before any test flips haveAVX2.
var cpuAVX2 = haveAVX2

// useTile switches the DNN's and the GMM's kernel path for the rest of the
// test: the AVX2 tile, or the generic dot4/sqDist4 bodies every other CPU
// runs. Scorers pick the path up call by call (pooled window states work on
// either).
func useTile(t testing.TB, on bool) {
	t.Helper()
	if on && !cpuAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	prev := haveAVX2
	haveAVX2 = on
	t.Cleanup(func() { haveAVX2 = prev })
}

// TestGenericKernelPath re-runs the package's scoring contracts with the
// tile switched off, so the bodies every non-AVX2 machine runs (the DNN's
// dot4, the GMM's sqDist4) are held to the same assertions on the machines
// that never take them.
func TestGenericKernelPath(t *testing.T) {
	if !cpuAVX2 {
		t.Skip("the generic path is the only one on this CPU; the tests above ran it")
	}
	useTile(t, false)
	t.Run("ScoreWindowMatchesUtterance", TestScoreWindowMatchesUtterance)
	t.Run("WindowStateReset", TestWindowStateReset)
	t.Run("ScoreWindowAllocs", TestScoreWindowAllocs)
	t.Run("ScoreUtteranceAllocs", TestScoreUtteranceAllocs)
	t.Run("ScoreUtteranceConcurrent", TestScoreUtteranceConcurrent)
	t.Run("UtteranceMatchesWhole", TestUtteranceMatchesWhole)
	t.Run("UtteranceRowMatchesWhole", TestUtteranceRowMatchesWhole)
}

// diffBits is diffRows by bit pattern: NaN payloads and the sign of zero
// count, and a NaN matches itself.
func diffBits(got, want [][]float32) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for f := range want {
		if len(got[f]) != len(want[f]) {
			return fmt.Sprintf("frame %d: row len %d, want %d", f, len(got[f]), len(want[f]))
		}
		for s := range want[f] {
			if g, w := math.Float32bits(got[f][s]), math.Float32bits(want[f][s]); g != w {
				return fmt.Sprintf("frame %d senone %d: %#08x (%g) != scalar %#08x (%g)",
					f, s, g, got[f][s], w, want[f][s])
			}
		}
	}
	return ""
}

// nonFiniteSpecials are the feature values diffRows' != cannot judge, plus
// a finite frame far from every mean, whose GMM log-sum-exp argument lies
// below the table's range so the tile hands the lane to the scalar
// mixture; one special frame per kind (feature index → value; indices stay
// below 12):
// nonFiniteUtt plants them by position in the utterance modulo the list, the
// frames in between stay ordinary. A frame carries one NaN payload: which of
// two different NaNs an add returns depends on the operand order the
// compiler picks for the oracle's ADDSS (the plain and -race builds differ),
// so that tie has no oracle to match.
var nonFiniteSpecials = func() []map[int]float32 {
	nanA := math.Float32frombits(0x7fc00abc)
	nanB := math.Float32frombits(0xffc00123)
	inf := float32(math.Inf(1))
	negZero := math.Float32frombits(0x80000000)
	denormal := math.Float32frombits(1)
	return []map[int]float32{
		{3: nanA},
		nil,
		{0: nanB, 7: nanB},
		{5: inf},
		{2: -inf},
		{1: inf, 9: -inf}, // Inf − Inf makes the default NaN
		nil,
		{4: negZero, 11: negZero},
		{6: denormal},
		{8: math.MaxFloat32, 10: math.MaxFloat32}, // sums overflow
		{0: nanA, 3: inf, 6: negZero},
		{1: 60, 9: 60}, // finite, but far enough from every mean that the GMM's table falls back
	}
}()

func nonFiniteUtt(rng *rand.Rand, n, dim int) [][]float32 {
	utt := randUtt(rng, n, dim)
	for f, x := range utt {
		for j, v := range nonFiniteSpecials[(f+n)%len(nonFiniteSpecials)] {
			x[j] = v
		}
	}
	return utt
}

// checkNonFiniteParity scores a non-finite utterance of each edge length
// through ScoreUtterance and through scoreWindow at widths 1, 8, 16 and 32,
// and compares with the scalar oracle by bit pattern.
func checkNonFiniteParity(t *testing.T, label string, sc windowScorer, dim int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 15, 16, 17, 33} {
		utt := nonFiniteUtt(rng, n, dim)
		want := scalarScore(t, sc, utt)
		if diff := diffBits(sc.ScoreUtterance(utt), want); diff != "" {
			t.Fatalf("%s, %d frames, ScoreUtterance: %s", label, n, diff)
		}
		for _, width := range []int{1, 8, 16, 32} {
			st := sc.newWindowState(width)
			out := make([][]float32, n)
			for f := range out {
				out[f] = make([]float32, sc.ScoreDim())
			}
			for base := 0; base < n; base += width {
				end := min(base+width, n)
				sc.scoreWindow(st, utt[base:end], out[base:end])
			}
			if diff := diffBits(out, want); diff != "" {
				t.Fatalf("%s, %d frames, scoreWindow width %d: %s", label, n, width, diff)
			}
		}
	}
}

// TestDNNTileNonFiniteParity feeds the DNN what diffRows' != cannot judge —
// NaNs of either sign, ±Inf, -0, a denormal, MaxFloat32 — at the tile's
// edges (1, 15, 16, 17, 33 frames; a hidden width and a senone count that
// are not multiples of 4; scoreWindow widths 1, 8, 16, 32) and compares with
// the scalar oracle by bit pattern on both kernel paths.
func TestDNNTileNonFiniteParity(t *testing.T) {
	const dim = 12
	m := newModel(t, 40, 23, dim)
	for _, tile := range []bool{false, true} {
		t.Run(fmt.Sprintf("tile=%v", tile), func(t *testing.T) {
			useTile(t, tile)
			for _, hidden := range []int{64, 67} {
				d := NewDNNScorer(m, rand.New(rand.NewSource(41)), hidden, 3)
				checkNonFiniteParity(t, fmt.Sprintf("hidden %d", hidden), d, dim)
			}
		})
	}
}

// TestGMMTileNonFiniteParity is the same for the GMM, whose distances,
// log-densities and log-sum-exp turn those features into +Inf distances,
// −Inf and NaN log-densities and Inf − Inf inside logSumExp2: the tile's
// VSUBPS/VCVTPS2PD/VMULPD/VADDPD and the table's range test must hand on
// exactly what sqDist and the reference expression do. Dim 16 (the bench
// shape) and 13 (not a multiple of 4), an odd senone count.
func TestGMMTileNonFiniteParity(t *testing.T) {
	for _, tile := range []bool{false, true} {
		t.Run(fmt.Sprintf("tile=%v", tile), func(t *testing.T) {
			useTile(t, tile)
			for _, dim := range []int{16, 13} {
				g := NewGMMScorer(newModel(t, 43, 23, dim))
				checkNonFiniteParity(t, fmt.Sprintf("dim %d", dim), g, dim)
			}
		})
	}
}

// BenchmarkGMMScoreUtterance times the GMM at the bench/ harness's shape
// (120 senones, dim 16, one 224-frame utterance): the blocked kernel on both
// kernel paths, then the scalar oracle. ns/op ÷ 224 is the per-frame cost
// docs/BENCHMARKS.md quotes, and a -cpuprofile of one sub-benchmark is where
// its distance / log-sum-exp split comes from.
func BenchmarkGMMScoreUtterance(b *testing.B) {
	m := newModel(b, 30, 120, 16)
	utt := randUtt(rand.New(rand.NewSource(33)), 224, m.Dim)
	g := NewGMMScorer(m)
	for _, tile := range []bool{true, false} {
		b.Run(fmt.Sprintf("tile=%v", tile), func(b *testing.B) {
			useTile(b, tile)
			for i := 0; i < b.N; i++ {
				g.ScoreUtterance(utt)
			}
		})
	}
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.scalarScore(utt)
		}
	})
}
