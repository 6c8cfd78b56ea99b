package pool

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/decoder"
)

// sequentialResults decodes the fixture sequentially — the ground truth
// every fault test compares surviving utterances against.
func sequentialResults(t *testing.T, f *poolFixture) []*decoder.Result {
	t.Helper()
	seq, err := decoder.NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, decoder.Config{PreemptivePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*decoder.Result, len(f.scores))
	for i, sc := range f.scores {
		out[i] = seq.Decode(sc)
	}
	return out
}

// TestDecodePoolIsolatesPanic corrupts one utterance's score matrix so the
// search reads out of range, and checks the batch contract: that utterance
// carries a StageSearch DecodeError, every other utterance is byte-identical
// to a sequential decode, and the pool survives for the next batch.
func TestDecodePoolIsolatesPanic(t *testing.T) {
	f := getFixture(t)
	want := sequentialResults(t, f)
	const bad = 3
	scores := make([][][]float32, len(f.scores))
	copy(scores, f.scores)
	// Rows of length 1 hold only the epsilon slot; any senone read panics.
	corrupt := make([][]float32, len(f.scores[bad]))
	for i := range corrupt {
		corrupt[i] = []float32{0}
	}
	scores[bad] = corrupt

	p, err := New(f.tk.AM.G, f.tk.LMGraph.G, Config{Workers: 2, Decoder: decoder.Config{PreemptivePruning: true}})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := p.Decode(scores)
	if err != nil {
		t.Fatalf("batch error %v; panics must stay per-utterance", err)
	}
	if batch.Failed() != 1 {
		t.Fatalf("Failed() = %d, want 1; errors: %v", batch.Failed(), batch.Errors)
	}
	derr := batch.Errors[bad]
	if derr == nil || derr.Stage != StageSearch || derr.Utterance != bad {
		t.Fatalf("Errors[%d] = %v, want StageSearch", bad, derr)
	}
	var as *DecodeError
	if !errors.As(error(derr), &as) {
		t.Error("DecodeError does not satisfy errors.As")
	}
	if batch.Search.Panics != 1 {
		t.Errorf("Search.Panics = %d, want 1", batch.Search.Panics)
	}
	for i, r := range batch.Results {
		if i == bad {
			continue
		}
		if batch.Errors[i] != nil {
			t.Errorf("utt %d: unexpected error %v", i, batch.Errors[i])
		}
		if fmt.Sprint(r.Words) != fmt.Sprint(want[i].Words) || r.Cost != want[i].Cost {
			t.Errorf("utt %d diverged from sequential after panic elsewhere", i)
		}
	}
	// The worker that recovered must decode the next batch normally.
	again, err := p.Decode(f.scores)
	if err != nil || again.Failed() != 0 {
		t.Fatalf("pool poisoned after panic: err=%v failed=%d", err, again.Failed())
	}
	for i, r := range again.Results {
		if fmt.Sprint(r.Words) != fmt.Sprint(want[i].Words) {
			t.Errorf("utt %d diverged on the batch after a panic", i)
		}
	}
}

// TestDecodePoolCancelBeforeStart: an already-canceled context returns
// immediately with every utterance marked StageCanceled and ctx.Err().
func TestDecodePoolCancelBeforeStart(t *testing.T) {
	f := getFixture(t)
	p, err := New(f.tk.AM.G, f.tk.LMGraph.G, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	batch, err := p.DecodeContext(ctx, f.scores)
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("pre-canceled batch took %v", d)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if batch == nil || len(batch.Errors) != len(f.scores) {
		t.Fatal("batch not index-aligned")
	}
	for i, e := range batch.Errors {
		if e == nil || e.Stage != StageCanceled || !errors.Is(e, context.Canceled) {
			t.Errorf("utt %d error = %v, want StageCanceled wrapping context.Canceled", i, e)
		}
	}
	if batch.Search.Canceled != int64(len(f.scores)) {
		t.Errorf("Search.Canceled = %d, want %d", batch.Search.Canceled, len(f.scores))
	}
}

// TestDecodePoolCancelMidBatch submits far more work than fits the deadline,
// expires it mid-decode, and checks the liveness contract: the call returns within
// ~100ms of the deadline (per-frame cancellation checks), results stay
// index-aligned, finished utterances keep sequential-identical transcripts,
// and interrupted ones carry StageCanceled errors.
func TestDecodePoolCancelMidBatch(t *testing.T) {
	f := getFixture(t)
	want := sequentialResults(t, f)
	// Replicate the fixture so the batch cannot finish inside the deadline.
	var scores [][][]float32
	for r := 0; r < 2000; r++ {
		scores = append(scores, f.scores...)
	}
	p, err := New(f.tk.AM.G, f.tk.LMGraph.G, Config{
		Workers: 2,
		Decoder: decoder.Config{PreemptivePruning: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	batch, err := p.DecodeContext(ctx, scores)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded (batch finished too fast to cancel?)", err)
	}
	if elapsed > deadline+100*time.Millisecond {
		t.Errorf("returned %v after the deadline, want <100ms", elapsed-deadline)
	}
	if len(batch.Results) != len(scores) || len(batch.Errors) != len(scores) {
		t.Fatal("batch not index-aligned")
	}
	if batch.Search.Canceled == 0 {
		t.Error("no utterances recorded as canceled")
	}
	for i := range scores {
		switch e := batch.Errors[i]; {
		case e == nil:
			// Finished before the deadline: must match sequential exactly.
			w := want[i%len(want)]
			if fmt.Sprint(batch.Results[i].Words) != fmt.Sprint(w.Words) {
				t.Errorf("utt %d finished but diverged from sequential", i)
			}
		case e.Stage != StageCanceled:
			t.Errorf("utt %d stage %q, want %q", i, e.Stage, StageCanceled)
		}
	}
}

// ---------------------------------------------------------------------------
// Lane-scheduler fault wall: seeded churn fuzzing, cancel-one-lane liveness,
// and the race-detector soak behind `make lanes-soak`.

var lanesSoak = flag.Duration("lanes-soak", 2*time.Second, "wall time for the lane churn soak (make lanes-soak runs 20s)")

// laneSequentialOnce caches the fixture's sequential ground truth — the
// oracle every churn order is compared against.
var (
	laneWantOnce sync.Once
	laneWant     []*decoder.Result
)

func laneSequential(t *testing.T, f *poolFixture) []*decoder.Result {
	laneWantOnce.Do(func() {
		seq, err := decoder.NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, decoder.Config{PreemptivePruning: true})
		if err != nil {
			panic(err)
		}
		out := make([]*decoder.Result, len(f.scores))
		for i, sc := range f.scores {
			out[i] = seq.Decode(sc)
		}
		laneWant = out
	})
	return laneWant
}

// checkLaneResult compares one lane outcome against the sequential oracle.
func checkLaneResult(t *testing.T, tag string, utt int, res *decoder.Result, want []*decoder.Result) {
	t.Helper()
	if res == nil {
		t.Errorf("%s utt %d: nil result", tag, utt)
		return
	}
	w := want[utt]
	if fmt.Sprint(res.Words) != fmt.Sprint(w.Words) || res.Cost != w.Cost || res.ReachedFinal != w.ReachedFinal {
		t.Errorf("%s utt %d diverged: (%v, %v, %v), want (%v, %v, %v)",
			tag, utt, res.Words, res.Cost, res.ReachedFinal, w.Words, w.Cost, w.ReachedFinal)
	}
}

// FuzzLaneSchedule drives a lane scheduler through seeded join/leave/cancel
// churn: a random interleaving of single-utterance batches, chunked streamed
// lanes, and lanes canceled mid-flight (by context or by Close), over a
// random lane width. The invariants under every admission order: every
// utterance that completes is byte-identical to its solo decode, canceled
// lanes fail with StageCanceled and nothing else, and when the dust settles
// no slot, decoder, or queue entry has leaked (joins == drains, all slots
// free).
func FuzzLaneSchedule(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 1234, 99999} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		fx := getFixture(t)
		want := laneSequential(t, fx)
		rng := rand.New(rand.NewSource(int64(seed)))
		width := 1 + rng.Intn(4)
		s, err := NewLaneScheduler(fx.tk.AM.G, fx.tk.LMGraph.G, fx.tk.Scorer, LaneConfig{
			Lanes:   width,
			Decoder: decoder.Config{PreemptivePruning: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		ops := 4 + rng.Intn(9)
		var wg sync.WaitGroup
		for op := 0; op < ops; op++ {
			utt := rng.Intn(len(fx.tk.Test))
			mode := rng.Intn(4)
			chunk := 1 + rng.Intn(9)
			cancelAfter := rng.Intn(3)
			closeNotCancel := rng.Intn(2) == 0
			wg.Add(1)
			switch mode {
			case 0: // single-utterance batch
				go func() {
					defer wg.Done()
					b, err := s.Decode([][][]float32{fx.tk.Test[utt].Frames})
					if err != nil || b.Failed() != 0 {
						t.Errorf("batch utt %d: err=%v errors=%v", utt, err, b.Errors)
						return
					}
					checkLaneResult(t, "batch", utt, b.Results[0], want)
				}()
			case 1: // streamed lane, chunked pushes, clean finish
				go func() {
					defer wg.Done()
					h, err := s.OpenLane(context.Background(), nil)
					if err != nil {
						t.Errorf("stream utt %d: open: %v", utt, err)
						return
					}
					frames := fx.tk.Test[utt].Frames
					for off := 0; off < len(frames); off += chunk {
						end := off + chunk
						if end > len(frames) {
							end = len(frames)
						}
						if err := h.Push(frames[off:end]); err != nil {
							t.Errorf("stream utt %d: push: %v", utt, err)
							return
						}
					}
					res, err := h.Finish()
					if err != nil {
						t.Errorf("stream utt %d: finish: %v", utt, err)
						return
					}
					checkLaneResult(t, "stream", utt, res, want)
				}()
			default: // lane canceled mid-flight
				go func() {
					defer wg.Done()
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					h, err := s.OpenLane(ctx, nil)
					if err != nil {
						// Legal only if the cancellation raced admission.
						var derr *DecodeError
						if !errors.As(err, &derr) || derr.Stage != StageCanceled {
							t.Errorf("cancel utt %d: open: %v", utt, err)
						}
						return
					}
					frames := fx.tk.Test[utt].Frames
					for c := 0; c <= cancelAfter && c*chunk < len(frames); c++ {
						end := (c + 1) * chunk
						if end > len(frames) {
							end = len(frames)
						}
						if err := h.Push(frames[c*chunk : end]); err != nil {
							break // already failed: fine, it must still unblock
						}
					}
					if closeNotCancel {
						h.Close()
						return
					}
					cancel()
					if _, err := h.Finish(); err != nil {
						var derr *DecodeError
						if !errors.As(err, &derr) || derr.Stage != StageCanceled {
							t.Errorf("cancel utt %d: finish: %v, want StageCanceled", utt, err)
						}
					}
				}()
			}
		}
		wg.Wait()
		if !s.Quiesced() {
			t.Error("scheduler leaked a slot or queue entry after churn")
		}
		if st := s.Stats(); st.Joins != st.Drains {
			t.Errorf("token leak: joins %d != drains %d", st.Joins, st.Drains)
		}
	})
}

// TestLaneSchedulerCancelOneLaneMidBatch is the lane liveness contract: with
// a streamed lane and a saturating batch sharing the group, canceling just
// the stream's context releases its slot within a bounded wait (the runner
// checks every lane's context each frame step), the stream's Finish returns
// its partial result with a StageCanceled error, and the batch — which never
// saw the cancellation — completes with every utterance byte-identical to a
// sequential decode.
func TestLaneSchedulerCancelOneLaneMidBatch(t *testing.T) {
	f := getFixture(t)
	want := laneSequential(t, f)
	s, err := NewLaneScheduler(f.tk.AM.G, f.tk.LMGraph.G, f.tk.Scorer, LaneConfig{
		Lanes:   2,
		Decoder: decoder.Config{PreemptivePruning: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := s.OpenLane(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Push(f.tk.Test[0].Frames[:3]); err != nil {
		t.Fatal(err)
	}

	// Saturate the rest of the group: 3x the fixture, batched concurrently.
	var utts [][][]float32
	var wantIdx []int
	for r := 0; r < 3; r++ {
		for i, u := range f.tk.Test {
			utts = append(utts, u.Frames)
			wantIdx = append(wantIdx, i)
		}
	}
	var wg sync.WaitGroup
	var batch *Batch
	var batchErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch, batchErr = s.Decode(utts)
	}()

	// Cancel only the stream, mid-batch. Finish must return promptly even
	// though the group is saturated with the batch's work.
	cancel()
	start := time.Now()
	res, ferr := h.Finish()
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("canceled lane took %v to release, want prompt", waited)
	}
	var derr *DecodeError
	if !errors.As(ferr, &derr) || derr.Stage != StageCanceled || !errors.Is(ferr, context.Canceled) {
		t.Errorf("Finish after cancel: %v, want StageCanceled wrapping context.Canceled", ferr)
	}
	if res == nil || res.Stats.Frames > 3 {
		t.Errorf("canceled lane result %+v, want partial over <= 3 consumed frames", res)
	}

	wg.Wait()
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	if n := batch.Failed(); n != 0 {
		t.Fatalf("cancellation leaked into the batch: %d failures: %v", n, batch.Errors)
	}
	for i, r := range batch.Results {
		checkLaneResult(t, "batch", wantIdx[i], r, want)
	}
	if !s.Quiesced() {
		t.Error("scheduler not quiesced")
	}
}

// TestSoakLaneChurn is the lane scheduler's endurance pass (make lanes-soak;
// `make race` runs its 2s short mode): several goroutines hammer one
// scheduler with mixed batches, chunked streams and mid-flight cancels for
// the soak duration, under -race in both entry points. Every completed
// utterance must match the sequential oracle, and the scheduler must end
// quiesced with join/drain accounting balanced.
func TestSoakLaneChurn(t *testing.T) {
	f := getFixture(t)
	want := laneSequential(t, f)
	s, err := NewLaneScheduler(f.tk.AM.G, f.tk.LMGraph.G, f.tk.Scorer, LaneConfig{
		Lanes:   4,
		Decoder: decoder.Config{PreemptivePruning: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	deadline := time.Now().Add(*lanesSoak)
	var done, canceled atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			for time.Now().Before(deadline) {
				utt := rng.Intn(len(f.tk.Test))
				switch rng.Intn(3) {
				case 0: // small batch
					n := 1 + rng.Intn(3)
					var utts [][][]float32
					var idx []int
					for i := 0; i < n; i++ {
						u := (utt + i) % len(f.tk.Test)
						utts = append(utts, f.tk.Test[u].Frames)
						idx = append(idx, u)
					}
					b, err := s.Decode(utts)
					if err != nil || b.Failed() != 0 {
						t.Errorf("soak batch: err=%v errors=%v", err, b.Errors)
						return
					}
					for i, r := range b.Results {
						checkLaneResult(t, "soak batch", idx[i], r, want)
					}
					done.Add(int64(n))
				case 1: // chunked stream
					h, err := s.OpenLane(context.Background(), nil)
					if err != nil {
						t.Errorf("soak stream open: %v", err)
						return
					}
					frames := f.tk.Test[utt].Frames
					chunk := 1 + rng.Intn(8)
					for off := 0; off < len(frames); off += chunk {
						end := off + chunk
						if end > len(frames) {
							end = len(frames)
						}
						if err := h.Push(frames[off:end]); err != nil {
							t.Errorf("soak stream push: %v", err)
							return
						}
						_ = h.Partial()
					}
					res, err := h.Finish()
					if err != nil {
						t.Errorf("soak stream finish: %v", err)
						return
					}
					checkLaneResult(t, "soak stream", utt, res, want)
					done.Add(1)
				default: // canceled stream
					ctx, cancel := context.WithCancel(context.Background())
					h, err := s.OpenLane(ctx, nil)
					if err != nil {
						cancel()
						continue
					}
					_ = h.Push(f.tk.Test[utt].Frames[:1+rng.Intn(5)])
					if rng.Intn(2) == 0 {
						cancel()
						_, _ = h.Finish()
					} else {
						h.Close()
					}
					cancel()
					canceled.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if !s.Quiesced() {
		t.Error("scheduler leaked a slot after the soak")
	}
	st := s.Stats()
	if st.Joins != st.Drains {
		t.Errorf("join/drain imbalance after soak: %+v", st)
	}
	t.Logf("lane churn soak: %d utterances decoded, %d canceled, %d joins, scorer calls/frame %.3f",
		done.Load(), canceled.Load(), st.Joins, st.ScorerCallsPerFrame())
}
