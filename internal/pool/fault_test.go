package pool

import (
	"context"
	"errors"
	"fmt"
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
	batch, err := p.DecodeContext(ctx, f.scores, nil, decoder.Options{})
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
	batch, err := p.DecodeContext(ctx, scores, nil, decoder.Options{})
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
