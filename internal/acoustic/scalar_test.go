package acoustic

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"
)

// The scalar oracle: frame-at-a-time scoring, one matvec per layer per frame
// and one row allocated per frame. It defines the arithmetic every batched
// path (ScoreUtterance, scoreWindow, Utterance.Score) must reproduce float32-bit
// for bit, and it is the baseline TestScoreKernelRatio times the blocked
// kernel against.

func scalarScore(t testing.TB, sc Scorer, frames [][]float32) [][]float32 {
	t.Helper()
	switch s := sc.(type) {
	case *GMMScorer:
		return s.scalarScore(frames)
	case *DNNScorer:
		return s.scalarScore(frames)
	case *RNNScorer:
		return s.scalarScore(frames)
	}
	t.Fatalf("no scalar oracle for %T", sc)
	return nil
}

func (g *GMMScorer) scalarScore(frames [][]float32) [][]float32 {
	out := make([][]float32, len(frames))
	for f, x := range frames {
		row := make([]float32, g.m.NumSenones+1)
		row[0] = unusedScore
		for s := 1; s <= g.m.NumSenones; s++ {
			c := g.comps[s]
			l1 := logGauss(x, c[:g.m.Dim], g.m.Sigma) + g.lw
			l2 := logGauss(x, c[g.m.Dim:], g.m.Sigma) + g.lw
			row[s] = logSumExp2Ref(l1, l2)
		}
		out[f] = row
	}
	return out
}

func (d *DNNScorer) scalarScore(frames [][]float32) [][]float32 {
	out := make([][]float32, len(frames))
	h := make([]float32, d.hidden)
	h2 := make([]float32, d.hidden)
	for f, x := range frames {
		// Hidden stack (computed for cost and perturbation).
		matVec(h, d.w1, x)
		reluInPlace(h)
		for l := 1; l < d.layers; l++ {
			matVec(h2, d.wh, h)
			reluInPlace(h2)
			h, h2 = h2, h
		}
		row := make([]float32, d.m.NumSenones+1)
		row[0] = unusedScore
		for s := 1; s <= d.m.NumSenones; s++ {
			t := d.tmplB[s] + dot(d.tmplW[s], x)
			p := dot(d.proj[s*d.hidden:(s+1)*d.hidden], h)
			row[s] = t + d.perturb*p
		}
		out[f] = row
	}
	return out
}

func (r *RNNScorer) scalarScore(frames [][]float32) [][]float32 {
	out := make([][]float32, len(frames))
	h := make([]float32, r.hidden)
	hNew := make([]float32, r.hidden)
	smooth := make([]float32, r.m.NumSenones+1)
	first := true
	for f, x := range frames {
		// Elman recurrence: h = tanh(Wx x + Wr h).
		matVec(hNew, r.wx, x)
		addMatVec(hNew, r.wr, h)
		tanhInPlace(hNew)
		h, hNew = hNew, h

		row := make([]float32, r.m.NumSenones+1)
		row[0] = unusedScore
		for s := 1; s <= r.m.NumSenones; s++ {
			t := r.tmpl.tmplB[s] + dot(r.tmpl.tmplW[s], x)
			p := dot(r.proj[s*r.hidden:(s+1)*r.hidden], h)
			raw := t + 0.02*p
			if first {
				smooth[s] = raw
			} else {
				smooth[s] = (1-r.alpha)*smooth[s] + r.alpha*raw
			}
			row[s] = smooth[s]
		}
		first = false
		out[f] = row
	}
	return out
}

func matVec(dst, m, x []float32) {
	n := len(x)
	rows := len(dst)
	for i := 0; i < rows; i++ {
		dst[i] = dot(m[i*n:(i+1)*n], x)
	}
}

func addMatVec(dst, m, x []float32) {
	n := len(x)
	rows := len(dst)
	for i := 0; i < rows; i++ {
		dst[i] += dot(m[i*n:(i+1)*n], x)
	}
}

// logGauss returns the log-density of frame x under an isotropic Gaussian
// centred at mu with standard deviation sigma.
func logGauss(x, mu []float32, sigma float32) float32 {
	var sq float64
	for d := range x {
		diff := float64(x[d] - mu[d])
		sq += diff * diff
	}
	v := float64(sigma) * float64(sigma)
	return float32(-0.5*sq/v - 0.5*float64(len(x))*math.Log(2*math.Pi*v))
}

// diffRows describes the first place got differs from want bit for bit, or
// returns "" when they are identical.
func diffRows(got, want [][]float32) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for f := range want {
		if len(got[f]) != len(want[f]) {
			return fmt.Sprintf("frame %d: row len %d, want %d", f, len(got[f]), len(want[f]))
		}
		for s := range want[f] {
			if got[f][s] != want[f][s] {
				return fmt.Sprintf("frame %d senone %d: %g != scalar %g", f, s, got[f][s], want[f][s])
			}
		}
	}
	return ""
}

// TestScoreKernelRatio holds the blocked kernel's gain where CI can see it:
// ScoreUtterance against the scalar oracle on the same utterance in the same
// run, median of 5 rounds each. The GMM is timed on both kernel paths, the
// DNN on all three: the generic dot4 body, the AVX2 tile with AVX-512 off
// (rows4x16) and, where the CPU has AVX-512F, the AVX-512 tile (rows8x16).
// Measured: GMM AVX2 tile ~10.7x with the whole mixture on the tile,
// generic sqDist4 ~3.1x (the table log-sum-exp carries the generic path,
// the oracle keeps Log1p(Exp)); DNN AVX-512 tile 22.5-24.7x (floor 11x,
// about half), AVX2 tile 16-18x. The DNN's generic row is four frames'
// interleaved scalar dot products against one frame's at a time, with no
// SIMD on either side: it read 1.58-2.14x in quiet runs and as low as
// 1.27x under a parallel package run, so its floor of 1.3x says only that
// the interleaving still wins. The RNN (sequential recurrence) must simply
// not lose.
//
// Two more rows time the GMM's on-demand scoring (Utterance.Row) against
// ScoreUtterance on the tile, each frame asking for a fresh random need
// list: 25 senones, the served beam's share (~2.1x measured, floor 1.3x),
// and 100, above eagerPercent, where Row must fall back to the eager blocks
// and lose nothing (1.00-1.10x, floor 0.95x). Both sides run the same
// kernel there, so these rows take the median of 15 rounds, not 5.
func TestScoreKernelRatio(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("timing gate: skipped under -short and -race")
	}
	t.Logf("clock: %s", timingClock)
	// The bench/ harness's big-dnn shape: 120 senones, dim 16, hidden 256,
	// 3 layers, one 224-frame utterance.
	m := newModel(t, 30, 120, 16)
	utt := randUtt(rand.New(rand.NewSource(33)), 224, m.Dim)
	newDNN := func() Scorer { return NewDNNScorer(m, rand.New(rand.NewSource(31)), 0, 0) }
	cases := []struct {
		name   string
		sc     Scorer
		floor  float64
		tile   bool // score with the AVX2 tile on; the RNN does not consult it
		avx512 bool // and the DNN's dense layers on rows8x16; only the DNN consults it
	}{
		{"GMM, generic sqDist4", NewGMMScorer(m), 1.5, false, false},
		{"GMM, AVX2 tile", NewGMMScorer(m), 5.0, true, false},
		{"DNN, generic dot4", newDNN(), 1.3, false, false},
		{"DNN, AVX2 tile", newDNN(), 4.0, true, false},
		{"DNN, AVX-512 tile", newDNN(), 11.0, true, true},
		{"RNN", NewRNNScorer(m, rand.New(rand.NewSource(32)), 0), 0.95, false, false},
	}
	for _, c := range cases {
		if c.tile && !cpuAVX2 {
			t.Logf("%s: no AVX2 on this CPU, not run", c.name)
			continue
		}
		if c.avx512 && !cpuAVX512 {
			t.Logf("%s: no AVX-512F on this CPU, not run", c.name)
			continue
		}
		useTile(t, c.tile)
		useAVX512(t, c.avx512)
		sc := c.sc
		if d := diffRows(sc.ScoreUtterance(utt), scalarScore(t, sc, utt)); d != "" {
			t.Fatalf("%s: %s", c.name, d)
		}
		scalar, blocked := timePair(5, len(utt), func() { scalarScore(t, sc, utt) }, func() { sc.ScoreUtterance(utt) })
		ratio := float64(scalar) / float64(blocked)
		t.Logf("%s: scalar %v/frame, blocked %v/frame, %.2fx", c.name, scalar, blocked, ratio)
		if ratio < c.floor {
			t.Errorf("%s: blocked ScoreUtterance is %.2fx the scalar oracle, want >= %.2fx",
				c.name, ratio, c.floor)
		}
	}

	if !cpuAVX2 {
		t.Log("GMM on demand: no AVX2 on this CPU, not run")
		return
	}
	useTile(t, true)
	g := NewGMMScorer(m)
	rng := rand.New(rand.NewSource(34))
	for _, c := range []struct {
		need  int
		floor float64
	}{{25, 1.3}, {100, 0.95}} {
		needs := make([][]int32, len(utt))
		for f := range needs {
			for _, s := range rng.Perm(m.NumSenones)[:c.need] {
				needs[f] = append(needs[f], int32(s+1))
			}
		}
		u := NewUtterance(g)
		onDemand := func() {
			u.Reset()
			u.Load(utt)
			for f := range utt {
				u.Row(f, func() []int32 { return needs[f] })
			}
		}
		eager, lazy := timePair(15, len(utt), func() { g.ScoreUtterance(utt) }, onDemand)
		u.Close()
		ratio := float64(eager) / float64(lazy)
		t.Logf("GMM on demand, %d of %d senones a frame: eager %v/frame, on demand %v/frame, %.2fx",
			c.need, m.NumSenones, eager, lazy, ratio)
		if ratio < c.floor {
			t.Errorf("GMM on demand, %d senones a frame: %.2fx eager ScoreUtterance, want >= %.2fx",
				c.need, ratio, c.floor)
		}
	}
}

// timePair times base and fast per frame of an n-frame utterance: the
// median of rounds rounds of 4 calls each. The two sides take turns round
// by round, so a busy stretch of the host lands on both. On linux it reads
// the thread's CPU clock (clockNow), with the goroutine locked to its
// thread: `go test ./...` runs other packages' tests on the same cores, and
// with other processes busy there a row whose median is 1.04x read as low
// as 0.47x on the wall clock. One untimed call of each side comes first, so
// the first timed round does not pay the cold start (page faults, cold
// caches, lazily built buffers) that read 0.87-0.92x on a 1.00-1.15x row.
//
// Both sides run at GOMAXPROCS 1, as testing.AllocsPerRun does: the rows
// compare one core's kernels. Above 1, ScoreUtterance hands blocks to
// helper goroutines whose CPU time the thread clock does not see, which
// read the GMM tile row 14-17x instead of ~11x and the DNN tile row ~28x
// instead of ~17x (enough to hide the tile forced off), and the 100-senone
// on-demand row 0.71-0.77x, its eager side no longer one core's.
func timePair(rounds, n int, base, fast func()) (time.Duration, time.Duration) {
	const reps = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	base()
	fast()
	timeIt := func(score func()) time.Duration {
		start := clockNow()
		for r := 0; r < reps; r++ {
			score()
		}
		return (clockNow() - start) / time.Duration(reps*n)
	}
	bases, fasts := make([]time.Duration, rounds), make([]time.Duration, rounds)
	for i := 0; i < rounds; i++ {
		bases[i] = timeIt(base)
		fasts[i] = timeIt(fast)
	}
	median := func(d []time.Duration) time.Duration {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return d[rounds/2]
	}
	return median(bases), median(fasts)
}
