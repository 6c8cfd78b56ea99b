package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/acoustic"
	"repro/internal/decoder"
	"repro/internal/semiring"
	"repro/internal/telemetry"
)

// laneFrames returns the fixture's feature utterances — the lane scheduler
// takes raw frames (scoring is batched inside), unlike the worker pool's
// pre-scored matrices.
func laneFrames(f *poolFixture) [][][]float32 {
	out := make([][][]float32, len(f.tk.Test))
	for i, u := range f.tk.Test {
		out[i] = u.Frames
	}
	return out
}

// checkLaneBatch asserts a healthy lane batch against the sequential ground
// truth: index-aligned, error-free, and byte-identical transcripts/costs.
func checkLaneBatch(t *testing.T, b *Batch, want []*decoder.Result) {
	t.Helper()
	if n := b.Failed(); n != 0 {
		t.Fatalf("lane batch failed %d utterances: %v", n, b.Errors)
	}
	if len(b.Results) != len(want) {
		t.Fatalf("batch not index-aligned: %d results, want %d", len(b.Results), len(want))
	}
	for i, r := range b.Results {
		if r.Cost != want[i].Cost {
			t.Errorf("utt %d cost: lanes %v, sequential %v", i, r.Cost, want[i].Cost)
		}
		if fmt.Sprint(r.Words) != fmt.Sprint(want[i].Words) {
			t.Errorf("utt %d words: lanes %v, sequential %v", i, r.Words, want[i].Words)
		}
		if fmt.Sprint(r.WordEnds) != fmt.Sprint(want[i].WordEnds) {
			t.Errorf("utt %d word ends: lanes %v, sequential %v", i, r.WordEnds, want[i].WordEnds)
		}
		if r.ReachedFinal != want[i].ReachedFinal {
			t.Errorf("utt %d finality: lanes %v, sequential %v", i, r.ReachedFinal, want[i].ReachedFinal)
		}
	}
}

// TestLaneSchedulerMatchesSequential is the scheduler's core property: a
// batch through the continuous batcher — utterances sharing scorer calls,
// slots recycling mid-batch — produces byte-identical transcripts to a plain
// sequential decoder, and collapses scorer calls below one per lane-frame.
func TestLaneSchedulerMatchesSequential(t *testing.T) {
	f := getFixture(t)
	want := sequentialResults(t, f)
	s, err := NewLaneScheduler(f.tk.AM.G, f.tk.LMGraph.G, f.tk.Scorer, LaneConfig{
		Lanes:   3,
		Decoder: decoder.Config{PreemptivePruning: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	b, err := s.Decode(laneFrames(f))
	if err != nil {
		t.Fatal(err)
	}
	checkLaneBatch(t, b, want)
	if !s.Quiesced() {
		t.Error("scheduler not quiesced after batch")
	}
	st := s.Stats()
	if st.Joins != int64(len(f.tk.Test)) || st.Drains != st.Joins {
		t.Errorf("join/drain accounting: %+v", st)
	}
	if ratio := st.ScorerCallsPerFrame(); ratio >= 1 {
		t.Errorf("scorer calls/frame = %.3f, want < 1 with 3 lanes", ratio)
	}
	if b.Throughput.Frames == 0 || b.Throughput.CacheLookups == 0 {
		t.Errorf("throughput/offset-table accounting empty: %+v", b.Throughput)
	}
}

// TestLaneSchedulerStreamJoinsMidBatch runs a streamed lane against a batch
// big enough to keep every slot busy: the stream is admitted mid-flight when
// a batch utterance drains (continuous batching, not batch barriers), its
// chunked pushes interleave with the batch's frames, and both the stream and
// every batch utterance stay byte-identical to sequential decodes.
func TestLaneSchedulerStreamJoinsMidBatch(t *testing.T) {
	f := getFixture(t)
	want := sequentialResults(t, f)
	s, err := NewLaneScheduler(f.tk.AM.G, f.tk.LMGraph.G, f.tk.Scorer, LaneConfig{
		Lanes:   2,
		Decoder: decoder.Config{PreemptivePruning: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	var batch *Batch
	var batchErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch, batchErr = s.Decode(laneFrames(f))
	}()

	// The stream queues behind the batch's utterances and joins when a slot
	// frees mid-batch.
	h, err := s.OpenLane(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	frames := f.tk.Test[0].Frames
	for off := 0; off < len(frames); off += 7 {
		end := off + 7
		if end > len(frames) {
			end = len(frames)
		}
		if err := h.Push(frames[off:end]); err != nil {
			t.Fatal(err)
		}
		_ = h.Partial() // exercised for races; value asserted via Finish
	}
	res, err := h.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Words) != fmt.Sprint(want[0].Words) || res.Cost != want[0].Cost {
		t.Errorf("stream diverged: (%v, %v), want (%v, %v)", res.Words, res.Cost, want[0].Words, want[0].Cost)
	}

	wg.Wait()
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	checkLaneBatch(t, batch, want)
	if !s.Quiesced() {
		t.Error("scheduler not quiesced")
	}
}

// TestLaneSchedulerPerLanePresets interleaves a full-quality batch with a
// degraded one in the same lane group and requires each to match its own
// solo operating point — the preset binds to the lane, not the group.
func TestLaneSchedulerPerLanePresets(t *testing.T) {
	f := getFixture(t)
	cfg := decoder.Config{PreemptivePruning: true}
	preset := decoder.SearchPreset{Beam: semiring.Weight(6), MaxActive: 96}

	full := sequentialResults(t, f)
	seq, err := decoder.NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq.SetSearchPreset(preset)
	degraded := make([]*decoder.Result, len(f.scores))
	for i, sc := range f.scores {
		degraded[i] = seq.Decode(sc)
	}

	s, err := NewLaneScheduler(f.tk.AM.G, f.tk.LMGraph.G, f.tk.Scorer, LaneConfig{Lanes: 4, Decoder: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	var bFull, bDeg *Batch
	wg.Add(2)
	go func() { defer wg.Done(); bFull, _ = s.DecodeContext(context.Background(), laneFrames(f), nil) }()
	go func() {
		defer wg.Done()
		p := preset
		bDeg, _ = s.DecodeContext(context.Background(), laneFrames(f), &p)
	}()
	wg.Wait()
	checkLaneBatch(t, bFull, full)
	checkLaneBatch(t, bDeg, degraded)
}

// TestLaneSchedulerIsolatesLanePanic hands one lane a poisoned score row:
// exactly one utterance fails with StageSearch, every other utterance
// matches sequential, and the scheduler keeps serving afterwards —
// DecodePool's fault contract, carried over to lanes.
func TestLaneSchedulerIsolatesLanePanic(t *testing.T) {
	f := getFixture(t)
	want := sequentialResults(t, f)
	scorer := &truncatingScorer{BatchScorer: f.tk.Scorer.(acoustic.BatchScorer), at: 40}
	s, err := NewLaneScheduler(f.tk.AM.G, f.tk.LMGraph.G, scorer, LaneConfig{
		Lanes:   2,
		Decoder: decoder.Config{PreemptivePruning: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	b, err := s.Decode(laneFrames(f))
	if err != nil {
		t.Fatal(err)
	}
	if b.Failed() != 1 {
		t.Fatalf("Failed() = %d, want 1; errors: %v", b.Failed(), b.Errors)
	}
	if b.Search.Panics != 1 {
		t.Errorf("Search.Panics = %d, want 1", b.Search.Panics)
	}
	for i, e := range b.Errors {
		if e != nil {
			if e.Stage != StageSearch {
				t.Errorf("utt %d stage %q, want %q", i, e.Stage, StageSearch)
			}
			continue
		}
		if fmt.Sprint(b.Results[i].Words) != fmt.Sprint(want[i].Words) {
			t.Errorf("utt %d diverged from sequential after a panic elsewhere", i)
		}
	}
	// The slot that hosted the panic serves the next batch normally.
	again, err := s.Decode(laneFrames(f))
	if err != nil || again.Failed() != 0 {
		t.Fatalf("scheduler poisoned after panic: err=%v failed=%d", err, again.Failed())
	}
	checkLaneBatch(t, again, want)
}

// truncatingScorer cuts one lane's score row down to the epsilon slot on its
// at'th step, once — the length-1 row TestDecodePoolIsolatesPanic feeds the
// worker pool, so any senone read in that lane's frontier step is out of
// range. The row belongs to the lane group, so the full one goes back before
// the next step. Only the scheduler's runner goroutine scores, so plain
// fields suffice.
type truncatingScorer struct {
	acoustic.BatchScorer
	at, steps int
	lane      int
	full      []float32
}

func (s *truncatingScorer) ScoreStep(states []acoustic.LaneState, frames, out [][]float32) {
	if s.full != nil {
		out[s.lane], s.full = s.full, nil
	}
	s.BatchScorer.ScoreStep(states, frames, out)
	if s.steps++; s.steps != s.at {
		return
	}
	for i, f := range frames {
		if f != nil {
			s.lane, s.full = i, out[i]
			out[i] = out[i][:1]
			return
		}
	}
}

// TestLaneSchedulerClose: closing fails in-flight work with
// ErrLaneSchedulerClosed, releases every slot, and rejects new submissions.
func TestLaneSchedulerClose(t *testing.T) {
	f := getFixture(t)
	s, err := NewLaneScheduler(f.tk.AM.G, f.tk.LMGraph.G, f.tk.Scorer, LaneConfig{Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.OpenLane(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Push(f.tk.Test[0].Frames[:3]); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := h.Finish(); !errors.Is(err, ErrLaneSchedulerClosed) {
		t.Errorf("Finish after Close: %v, want ErrLaneSchedulerClosed", err)
	}
	if _, err := s.OpenLane(context.Background(), nil); !errors.Is(err, ErrLaneSchedulerClosed) {
		t.Errorf("OpenLane after Close: %v, want ErrLaneSchedulerClosed", err)
	}
	if b, err := s.Decode(laneFrames(f)); !errors.Is(err, ErrLaneSchedulerClosed) || b.Failed() != len(f.tk.Test) {
		t.Errorf("Decode after Close: err=%v failed=%d", err, b.Failed())
	}
	s.Close() // idempotent
}

// TestLaneSchedulerTelemetry checks the unfold_lane_* instruments: joins and
// drains count every admitted utterance, and the active gauge returns to
// zero once the work drains.
func TestLaneSchedulerTelemetry(t *testing.T) {
	f := getFixture(t)
	reg := telemetry.NewRegistry()
	tel := NewTelemetry(reg, nil)
	s, err := NewLaneScheduler(f.tk.AM.G, f.tk.LMGraph.G, f.tk.Scorer, LaneConfig{
		Lanes:     2,
		Decoder:   decoder.Config{PreemptivePruning: true},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Decode(laneFrames(f)); err != nil {
		t.Fatal(err)
	}
	n := int64(len(f.tk.Test))
	if got := tel.LaneJoins.Value(); got != n {
		t.Errorf("unfold_lane_joins_total = %d, want %d", got, n)
	}
	if got := tel.LaneDrains.Value(); got != n {
		t.Errorf("unfold_lane_drains_total = %d, want %d", got, n)
	}
	if got := tel.LaneActive.Value(); got != 0 {
		t.Errorf("unfold_lane_active = %v, want 0 after drain", got)
	}
	if got := tel.Batches.Value(); got != 1 {
		t.Errorf("unfold_pool_batches_total = %d, want 1", got)
	}
}

// TestLaneSchedulerCancelBeforeStart: an already-canceled context fails the
// whole batch promptly with StageCanceled errors — no utterance ever holds a
// slot.
func TestLaneSchedulerCancelBeforeStart(t *testing.T) {
	f := getFixture(t)
	s, err := NewLaneScheduler(f.tk.AM.G, f.tk.LMGraph.G, f.tk.Scorer, LaneConfig{Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	b, err := s.DecodeContext(ctx, laneFrames(f), nil)
	if d := time.Since(start); d > time.Second {
		t.Errorf("pre-canceled batch took %v", d)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, e := range b.Errors {
		if e == nil || e.Stage != StageCanceled || !errors.Is(e, context.Canceled) {
			t.Errorf("utt %d error = %v, want StageCanceled wrapping context.Canceled", i, e)
		}
	}
	if !s.Quiesced() {
		t.Error("scheduler not quiesced after canceled batch")
	}
}

// TestLaneSchedulerEmptyBatch: a zero-utterance batch returns an empty,
// healthy Batch.
func TestLaneSchedulerEmptyBatch(t *testing.T) {
	f := getFixture(t)
	s, err := NewLaneScheduler(f.tk.AM.G, f.tk.LMGraph.G, f.tk.Scorer, LaneConfig{Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b, err := s.Decode(nil)
	if err != nil || len(b.Results) != 0 || b.Failed() != 0 {
		t.Fatalf("empty batch: err=%v %+v", err, b)
	}
}
