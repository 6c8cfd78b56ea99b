package acoustic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cpuAVX2 is what the probe found, before any test flips haveAVX2.
var cpuAVX2 = haveAVX2

// useTile switches the DNN kernel path for the rest of the test: the AVX2
// tile, or the generic dot4 body every other CPU runs. Scorers pick the path
// up call by call (pooled window states work on either).
func useTile(t *testing.T, on bool) {
	t.Helper()
	if on && !cpuAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	prev := haveAVX2
	haveAVX2 = on
	t.Cleanup(func() { haveAVX2 = prev })
}

// TestGenericKernelPath re-runs the package's scoring contracts with the
// tile switched off, so the body every non-AVX2 machine runs is held to the
// same assertions on the machines that never take it.
func TestGenericKernelPath(t *testing.T) {
	if !cpuAVX2 {
		t.Skip("the generic path is the only one on this CPU; the tests above ran it")
	}
	useTile(t, false)
	t.Run("ScoreStepMatchesUtterance", TestScoreStepMatchesUtterance)
	t.Run("LaneStateReset", TestLaneStateReset)
	t.Run("ScoreStepAllocs", TestScoreStepAllocs)
	t.Run("ScoreWindowMatchesUtterance", TestScoreWindowMatchesUtterance)
	t.Run("ScoreWindowAllocs", TestScoreWindowAllocs)
	t.Run("ScoreUtteranceAllocs", TestScoreUtteranceAllocs)
	t.Run("ScoreUtteranceConcurrent", TestScoreUtteranceConcurrent)
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

// TestDNNTileNonFiniteParity feeds the DNN what diffRows' != cannot judge —
// NaNs of either sign, ±Inf, -0, a denormal, MaxFloat32 — at the tile's
// edges (1, 15, 16, 17, 33 frames; a hidden width and a senone count that
// are not multiples of 4; ScoreWindow widths 1, 8, 16, 32) and compares with
// the scalar oracle by bit pattern on both kernel paths. A frame carries one
// NaN payload: which of two different NaNs an add returns depends on the
// operand order the compiler picks for the oracle's ADDSS (the plain and
// -race builds differ), so that tie has no oracle to match.
func TestDNNTileNonFiniteParity(t *testing.T) {
	const dim = 12
	m := newModel(t, 40, 23, dim)
	nanA := math.Float32frombits(0x7fc00abc)
	nanB := math.Float32frombits(0xffc00123)
	inf := float32(math.Inf(1))
	negZero := math.Float32frombits(0x80000000)
	denormal := math.Float32frombits(1)
	// One special frame per kind, by position in the utterance modulo
	// len(specials); the frames in between are ordinary.
	specials := []map[int]float32{
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
	}
	for _, tile := range []bool{false, true} {
		t.Run(fmt.Sprintf("tile=%v", tile), func(t *testing.T) {
			useTile(t, tile)
			for _, hidden := range []int{64, 67} {
				d := NewDNNScorer(m, rand.New(rand.NewSource(41)), hidden, 3)
				rng := rand.New(rand.NewSource(42))
				for _, n := range []int{1, 15, 16, 17, 33} {
					utt := randUtt(rng, n, dim)
					for f, x := range utt {
						for j, v := range specials[(f+n)%len(specials)] {
							x[j] = v
						}
					}
					want := d.scalarScore(utt)
					if diff := diffBits(d.ScoreUtterance(utt), want); diff != "" {
						t.Fatalf("hidden %d, %d frames, ScoreUtterance: %s", hidden, n, diff)
					}
					for _, width := range []int{1, 8, 16, 32} {
						st := d.NewWindowState(width)
						out := make([][]float32, n)
						for f := range out {
							out[f] = make([]float32, d.ScoreDim())
						}
						for base := 0; base < n; base += width {
							end := min(base+width, n)
							d.ScoreWindow(st, utt[base:end], out[base:end])
						}
						if diff := diffBits(out, want); diff != "" {
							t.Fatalf("hidden %d, %d frames, ScoreWindow width %d: %s", hidden, n, width, diff)
						}
					}
				}
			}
		})
	}
}
