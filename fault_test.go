package unfold

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/acoustic"
	"repro/internal/faultinject"
)

// bundleFixture is a system and a pristine saved bundle, built once per test
// binary; corruption tests copy the bundle, never touch the original.
type bundleFixture struct {
	sys *System
	dir string
	err error
}

var (
	bundleOnce sync.Once
	bundleFix  bundleFixture
)

func getBundle(t testing.TB) *bundleFixture {
	t.Helper()
	bundleOnce.Do(func() {
		sys, err := NewSystem(smallSpec())
		if err != nil {
			bundleFix.err = err
			return
		}
		dir, err := os.MkdirTemp("", "unfold-bundle-*")
		if err != nil {
			bundleFix.err = err
			return
		}
		if err := sys.Save(dir); err != nil {
			bundleFix.err = err
			return
		}
		bundleFix = bundleFixture{sys: sys, dir: dir}
	})
	if bundleFix.err != nil {
		t.Fatal(bundleFix.err)
	}
	return &bundleFix
}

// copyDir clones the pristine bundle (flat directory of regular files).
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadSurvivesCorruptBundles is the bundle-hardening contract: across
// many seeded corruptions (bit flips, truncations, zero runs, appended
// garbage, in any bundle file) LoadRecognizer must either load successfully
// or return a typed *BundleError — never panic, never return an untyped
// error, never hand back a half-valid recognizer.
func TestLoadSurvivesCorruptBundles(t *testing.T) {
	fx := getBundle(t)
	var loaded, rejected int
	for seed := int64(1); seed <= 50; seed++ {
		dir := t.TempDir()
		copyDir(t, fx.dir, dir)
		name, err := faultinject.CorruptBundle(dir, seed)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := LoadRecognizer(dir)
		if err != nil {
			var be *BundleError
			if !errors.As(err, &be) {
				t.Fatalf("seed %d (%s): untyped error %v", seed, name, err)
			}
			rejected++
			continue
		}
		// Benign corruption (e.g. a flipped bit in meta.json whitespace):
		// the recognizer must actually work, not just construct.
		if _, err := rec.Recognize(fx.sys.TestSet()[0].Frames); err != nil {
			t.Fatalf("seed %d (%s): loaded but cannot recognize: %v", seed, name, err)
		}
		loaded++
	}
	t.Logf("50 corrupted bundles: %d rejected with BundleError, %d benign", rejected, loaded)
	if rejected == 0 {
		t.Error("no corruption was ever detected; checksums not working")
	}
}

// TestRecognizeSurvivesPoisonedScorer swaps in a scorer that injects
// NaN/Inf bursts and checks that recognition neither panics nor errors —
// poisoned hypotheses are dropped inside the search, not propagated.
func TestRecognizeSurvivesPoisonedScorer(t *testing.T) {
	sys, err := NewSystem(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, fault := range []faultinject.ScoreFault{faultinject.FaultNaN, faultinject.FaultPosInf, faultinject.FaultNegInf} {
		sc := &countingScorer{Scorer: &faultinject.NaNScorer{
			Inner: sys.Scorer, Rate: 0.3, Fault: fault, Seed: int64(fault) + 1,
		}}
		sys.Scorer = sc
		for i, u := range sys.TestSet() {
			if _, err := sys.Recognize(u.Frames); err != nil {
				t.Fatalf("fault %d utt %d: %v", fault, i, err)
			}
		}
		if sc.calls.Load() == 0 {
			t.Fatalf("fault %d: the poisoned scorer was never called", fault)
		}
	}
}

// TestRecognizeSurvivesTruncatedMapping: a v3 bundle is mapped, then its
// file is truncated to 4 KiB under the live Recognizer, so the next decode's
// reads past the new end raise SIGBUS. Recognize and RecognizeTimed must
// return the decoder's fault as a StageSearch *DecodeError, and the process
// must live; without the session's guard the runtime ends the test binary
// with "fatal error: fault".
func TestRecognizeSurvivesTruncatedMapping(t *testing.T) {
	path, fx := saveFlatFixture(t)
	rec, err := LoadRecognizerFast(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !rec.Mapped() {
		t.Skip("mmap unavailable on this platform")
	}
	frames := fx.sys.TestSet()[0].Frames
	if _, err := rec.Recognize(frames); err != nil {
		t.Fatalf("intact bundle: %v", err)
	}
	if err := os.Truncate(path, 4<<10); err != nil {
		t.Fatal(err)
	}
	check := func(name string, err error) {
		t.Helper()
		var derr *DecodeError
		if !errors.As(err, &derr) || derr.Stage != StageSearch || !strings.Contains(err.Error(), "recovered panic") {
			t.Errorf("%s on a truncated mapping: %v, want a StageSearch DecodeError carrying the recovered fault", name, err)
		}
	}
	words, err := rec.Recognize(frames)
	check("Recognize", err)
	if words != nil {
		t.Errorf("Recognize returned words %v with its fault", words)
	}
	_, _, err = rec.RecognizeTimed(frames)
	check("RecognizeTimed", err)
}

// TestRecognizeRelaysScoringPanic: a DNN built for one more feature
// dimension than the frames carry panics in every block it scores, on the
// caller's goroutine and on the helpers its blocks fan out to at
// GOMAXPROCS 2. Recognize must return the panic as a StageSearch
// *DecodeError and the process must live; a panic left on a helper would
// end the test binary.
func TestRecognizeRelaysScoringPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sys, err := NewSystem(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	wide, err := acoustic.NewSenoneModel(rand.New(rand.NewSource(1)), sys.Senones.NumSenones, sys.Senones.Dim+1, 1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	sys.Scorer = acoustic.NewDNNScorer(wide, rand.New(rand.NewSource(2)), 0, 0)
	var frames [][]float32
	for _, u := range sys.TestSet() {
		frames = append(frames, u.Frames...)
	}
	if len(frames) < 40 {
		t.Fatalf("%d frames: too few for the scoring to fan out", len(frames))
	}
	for run := 0; run < 20; run++ {
		words, err := sys.Recognize(frames)
		var derr *DecodeError
		if !errors.As(err, &derr) || derr.Stage != StageSearch || !strings.Contains(err.Error(), "recovered panic") {
			t.Fatalf("run %d: %v, want a StageSearch DecodeError carrying the recovered panic", run, err)
		}
		if words != nil {
			t.Fatalf("run %d: words %v returned with the panic", run, words)
		}
	}
}

// countdownCtx is a live context whose Err reports context.Canceled from
// its left+1-th call on, so a search that checks it once a frame stops
// partway through an utterance.
type countdownCtx struct {
	context.Context
	left atomic.Int32
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRecognizeStopsMidUtterance is the public path of an early stop while
// a DNN's helpers are still scoring: at GOMAXPROCS 2 a search cancelled
// after 1 to 20 frames of a 40-plus-frame utterance returns the context's
// error without panicking, and the next Recognize decodes exactly as before
// the stop, so no abandoned block reaches it. Under -race this also checks
// that the helpers are gone before the call returns its rows to no one.
func TestRecognizeStopsMidUtterance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sys, err := NewSystem(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	sys.Scorer = acoustic.NewDNNScorer(sys.Senones, rand.New(rand.NewSource(2)), 0, 0)
	var frames [][]float32
	for _, u := range sys.TestSet() {
		frames = append(frames, u.Frames...)
	}
	if len(frames) < 40 {
		t.Fatalf("%d frames: too few for a stop after 20 to be mid-utterance", len(frames))
	}
	want, err := sys.Recognize(frames)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 20; run++ {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(int32(2 + run)) // the check before scoring, then 1+run frames
		if _, err := sys.RecognizeContext(ctx, frames); !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: %v, want context.Canceled", run, err)
		}
		got, err := sys.Recognize(frames)
		if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d: after the stop Recognize gave %v, %v; want %v", run, got, err, want)
		}
	}
}

// TestRecognizeBatchSurvivesPoisonedScorer: the batch path under a poisoned
// scorer stays index-aligned and error-free.
func TestRecognizeBatchSurvivesPoisonedScorer(t *testing.T) {
	sys, err := NewSystem(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	sc := &countingScorer{Scorer: &faultinject.NaNScorer{Inner: sys.Scorer, Rate: 0.5, Seed: 4}}
	sys.Scorer = sc
	var frames [][][]float32
	for _, u := range sys.TestSet() {
		frames = append(frames, u.Frames)
	}
	out, tp, err := sys.RecognizeBatch(frames, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(frames) {
		t.Fatalf("%d results for %d utterances", len(out), len(frames))
	}
	if tp.Frames == 0 {
		t.Error("throughput not recorded")
	}
	if sc.calls.Load() == 0 {
		t.Error("the poisoned scorer was never called")
	}
}

// TestDimensionErrors: every public entry point rejects mismatched feature
// dimensions up front with a typed error identifying the offending frame.
func TestDimensionErrors(t *testing.T) {
	fx := getBundle(t)
	want := fx.sys.Task.Senones.Dim
	bad := [][]float32{make([]float32, want), make([]float32, want+3)}

	_, err := fx.sys.Recognize(bad)
	var de *DimensionError
	if !errors.As(err, &de) {
		t.Fatalf("Recognize: %v, want DimensionError", err)
	}
	if de.Frame != 1 || de.Got != want+3 || de.Want != want {
		t.Errorf("DimensionError = %+v", de)
	}

	if _, _, err := fx.sys.RecognizeTimed(bad); !errors.As(err, &de) {
		t.Errorf("RecognizeTimed: %v, want DimensionError", err)
	}

	good := [][]float32{make([]float32, want)}
	_, _, err = fx.sys.RecognizeBatch([][][]float32{good, bad}, 2)
	var dde *DecodeError
	if !errors.As(err, &dde) {
		t.Fatalf("RecognizeBatch: %v, want DecodeError", err)
	}
	if dde.Utterance != 1 || dde.Stage != StageFeatures || !errors.As(dde, &de) {
		t.Errorf("DecodeError = %+v", dde)
	}

	rec, err := LoadRecognizer(fx.dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Recognize(bad); !errors.As(err, &de) {
		t.Errorf("Recognizer.Recognize: %v, want DimensionError", err)
	}
}

// countingScorer counts ScoreUtterance calls on the scorer it wraps; the
// batch path's workers call it concurrently.
type countingScorer struct {
	acoustic.Scorer
	calls atomic.Int64
}

func (c *countingScorer) ScoreUtterance(frames [][]float32) [][]float32 {
	c.calls.Add(1)
	return c.Scorer.ScoreUtterance(frames)
}

// TestRecognizeContextCanceled: a dead context surfaces promptly through
// the single-utterance and batch public paths, and before the scorer runs —
// scoring is nearly all of a DNN request, so a request whose context is
// already done must not pay for it. A live context scores once; a dead one
// returns ctx.Err() with no words and never reaches the scorer, on System
// (single and batch) and on Recognizer.
func TestRecognizeContextCanceled(t *testing.T) {
	fx := getBundle(t)
	u := fx.sys.TestSet()[0]
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	sys := fx.sys
	sc := &countingScorer{Scorer: sys.Scorer}
	sys.Scorer = sc
	t.Cleanup(func() { sys.Scorer = sc.Scorer })
	if _, err := sys.RecognizeContext(context.Background(), u.Frames); err != nil || sc.calls.Load() != 1 {
		t.Fatalf("live context: err %v, %d scorer calls, want nil and 1", err, sc.calls.Load())
	}
	sc.calls.Store(0)
	if words, err := sys.RecognizeContext(dead, u.Frames); !errors.Is(err, context.Canceled) || words != nil {
		t.Errorf("RecognizeContext: words %v, err %v, want nil and context.Canceled", words, err)
	}
	if _, _, err := sys.RecognizeBatchContext(dead, [][][]float32{u.Frames, u.Frames}, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("RecognizeBatchContext: %v, want context.Canceled", err)
	}
	if n := sc.calls.Load(); n != 0 {
		t.Errorf("System scored %d utterances for dead requests, want 0", n)
	}

	rec, err := LoadRecognizer(fx.dir)
	if err != nil {
		t.Fatal(err)
	}
	rsc := &countingScorer{Scorer: rec.Scorer}
	rec.Scorer = rsc
	if words, err := rec.RecognizeContext(dead, u.Frames); !errors.Is(err, context.Canceled) || words != nil {
		t.Errorf("Recognizer.RecognizeContext: words %v, err %v, want nil and context.Canceled", words, err)
	}
	if n := rsc.calls.Load(); n != 0 {
		t.Errorf("Recognizer scored %d utterances for a dead request, want 0", n)
	}
}
