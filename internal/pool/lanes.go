package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/acoustic"
	"repro/internal/decoder"
	"repro/internal/metrics"
	"repro/internal/wfst"
)

// LaneConfig sizes a LaneScheduler. The zero value selects serving-friendly
// defaults for every field.
type LaneConfig struct {
	// Lanes is the lockstep width: how many utterances advance together
	// through one batched scorer call per frame step. Default 4.
	Lanes int
	// Decoder configures each slot's beam search.
	Decoder decoder.Config
	// Telemetry, when non-nil, publishes the lane instruments
	// (unfold_lane_active, unfold_lane_joins_total, unfold_lane_drains_total)
	// plus the shared batch/decoder sets. nil disables all of it.
	Telemetry *Telemetry
}

func (c LaneConfig) withDefaults() LaneConfig {
	if c.Lanes <= 0 {
		c.Lanes = 4
	}
	return c
}

// ErrLaneSchedulerClosed is reported for work submitted to (or still inside)
// a scheduler that has been Closed.
var ErrLaneSchedulerClosed = errors.New("pool: lane scheduler closed")

// laneJob tracks one utterance through the scheduler: queued (waiting for a
// slot), admitted (holding a lane and a slot decoder), finished (result and
// error published, done closed).
type laneJob struct {
	ctx    context.Context
	preset *decoder.SearchPreset
	tb     *TenantBias // tenant assignment; nil decodes two-layer
	utt    int         // index in the submitting batch; -1 for streamed lanes

	queued    [][]float32 // frames submitted before admission
	inputDone bool        // no more frames are coming (batch jobs start true)
	canceled  bool        // explicit LaneHandle.Close

	lane *decoder.Lane
	di   int // slot decoder index while admitted

	finished bool
	res      *decoder.Result
	err      *DecodeError
	done     chan struct{}
	stop     func() bool // releases the ctx cancellation watch
}

// LaneScheduler runs continuous batching over one decoder.LaneGroup: up to
// Lanes utterances advance in frame-synchronous lockstep (one batched scorer
// call per step for all of them), and utterances join and leave the running
// group mid-flight — a freed slot is granted to the next queued utterance on
// the very next step, without waiting for the rest of the group to drain.
// This replaces the worker-pool shape (one goroutine and one scorer pass per
// utterance) with the batched-inference shape: dense matrix work amortized
// across concurrent requests, sparse search still per-utterance.
//
// One runner goroutine owns the group; submitters only enqueue and wait.
// Determinism carries over from the group: every utterance's result is
// byte-identical to a solo decode regardless of lane width, admission order,
// or what the other lanes are doing. Each slot owns its own decoder (its own
// offset table and search preset), so per-utterance degradation presets work
// exactly as in DecodePool: installed at admission, visible only to that
// lane.
//
// Fault isolation mirrors the worker pool: a panic inside one lane's
// frontier step fails only that utterance (StageSearch); a panic escaping
// the batched scorer itself fails the utterances active at that step
// (StageScore) and the scheduler keeps serving. Cancellation is checked
// every step, so a canceled utterance leaves its slot within one frame and
// returns its partial result with a StageCanceled error, decodeOne-style.
type LaneScheduler struct {
	cfg  LaneConfig
	decs []*decoder.OnTheFly

	mu         sync.Mutex
	cond       *sync.Cond
	group      *decoder.LaneGroup
	freeDecs   []int // slot decoders not bound to an utterance (LIFO)
	queue      []*laneJob
	active     []*laneJob
	closed     bool
	runnerDone chan struct{}
}

// NewLaneScheduler builds a scheduler of cfg.Lanes slots over the AM and LM
// graphs and a batch-capable scorer (all repo scorers qualify). The lane
// states belong to the scheduler's group, so the scorer may still serve
// concurrent ScoreUtterance callers while the scheduler is live.
func NewLaneScheduler(amGraph, lmGraph *wfst.WFST, scorer acoustic.Scorer, cfg LaneConfig) (*LaneScheduler, error) {
	cfg = cfg.withDefaults()
	group, err := decoder.NewLaneGroup(scorer, cfg.Lanes)
	if err != nil {
		return nil, err
	}
	s := &LaneScheduler{cfg: cfg, group: group, runnerDone: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	dcfg := cfg.Decoder
	dcfg.Telemetry = cfg.Telemetry.decoderTelemetry()
	for i := 0; i < cfg.Lanes; i++ {
		d, err := decoder.NewOnTheFly(amGraph, lmGraph, dcfg)
		if err != nil {
			return nil, fmt.Errorf("pool: lane %d: %w", i, err)
		}
		s.decs = append(s.decs, d)
		s.freeDecs = append(s.freeDecs, i)
	}
	go s.run()
	return s, nil
}

// Lanes reports the lockstep width.
func (s *LaneScheduler) Lanes() int { return len(s.decs) }

// Stats snapshots the underlying group's lifetime counters.
func (s *LaneScheduler) Stats() decoder.LaneStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.group.Stats()
}

// Quiesced reports whether no utterance holds or awaits a lane slot and
// every slot decoder is back in the free pool — the leak check invariant
// after all submitted work has drained.
func (s *LaneScheduler) Quiesced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) == 0 && len(s.active) == 0 &&
		len(s.freeDecs) == len(s.decs) && s.group.Active() == 0
}

// Close stops the runner, failing any queued or in-flight utterances with
// ErrLaneSchedulerClosed, and waits for it to exit. Further submissions fail
// with the same error. Idempotent.
func (s *LaneScheduler) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	<-s.runnerDone
}

// wake is the ctx-cancellation watch body: grab the scheduler lock so the
// broadcast cannot fall between the runner's idle check and its Wait.
func (s *LaneScheduler) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// run is the scheduler's only goroutine: admit queued utterances into free
// slots, reap finished/failed/canceled lanes, step the group one frame, and
// sleep when nothing can move. The lock is released every iteration (one
// frame step), so submitters, Push backpressure and cancellation all get in
// within a frame's worth of work — that is the liveness contract.
func (s *LaneScheduler) run() {
	old := debug.SetPanicOnFault(true)
	defer debug.SetPanicOnFault(old)
	for {
		s.mu.Lock()
		if s.closed {
			s.drainLocked()
			s.cond.Broadcast()
			s.mu.Unlock()
			close(s.runnerDone)
			return
		}
		progress := s.admitLocked()
		if s.reapLocked() {
			progress = true
		}
		stepped := s.stepLocked()
		if s.reapLocked() {
			progress = true
		}
		s.cond.Broadcast()
		if stepped == 0 && !progress && !s.closed {
			s.cond.Wait()
		}
		s.mu.Unlock()
	}
}

// admitLocked sweeps the queue: canceled jobs fail immediately (liveness for
// queued cancellations does not wait for a free slot), and the remaining
// jobs are admitted FIFO while slot decoders are free. Admission installs
// the job's search preset on the slot decoder — per-lane degradation — and
// flushes any frames queued before the slot was granted.
func (s *LaneScheduler) admitLocked() bool {
	if len(s.queue) == 0 {
		return false
	}
	progress := false
	keep := s.queue[:0]
	for _, j := range s.queue {
		switch {
		case j.canceled || j.ctx.Err() != nil:
			cause := j.ctx.Err()
			if cause == nil {
				cause = context.Canceled
			}
			s.finishLocked(j, nil, &DecodeError{Utterance: j.utt, Stage: StageCanceled, Cause: cause})
			progress = true
		case len(s.freeDecs) > 0:
			di := s.freeDecs[len(s.freeDecs)-1]
			s.freeDecs = s.freeDecs[:len(s.freeDecs)-1]
			dec := s.decs[di]
			if j.preset != nil {
				dec.SetSearchPreset(*j.preset)
			} else {
				dec.ClearSearchPreset()
			}
			// The bias machine installs under the same exclusivity as the
			// preset — the slot is free, so no lane is mid-decode on it. It
			// must land before Join: Join reseeds the slot's stream from the
			// decoder's (possibly biased) start key. Both branches run every
			// admission so a slot never carries a previous lane's machine.
			if j.tb != nil {
				if err := dec.SetBias(j.tb.Machine); err != nil {
					dec.ClearBias()
					s.freeDecs = append(s.freeDecs, di)
					s.finishLocked(j, nil, &DecodeError{Utterance: j.utt, Stage: StageSearch, Cause: err})
					progress = true
					continue
				}
			} else {
				dec.ClearBias()
			}
			lane, err := s.group.Join(dec)
			if err != nil {
				// Unreachable: freeDecs mirrors the group's free slots.
				s.freeDecs = append(s.freeDecs, di)
				keep = append(keep, j)
				continue
			}
			j.lane, j.di = lane, di
			if len(j.queued) > 0 {
				lane.Push(j.queued)
				j.queued = nil
			}
			s.active = append(s.active, j)
			if tel := s.cfg.Telemetry; tel != nil {
				tel.LaneJoins.Inc()
				tel.LaneActive.Inc()
			}
			progress = true
		default:
			keep = append(keep, j)
		}
	}
	s.queue = keep
	return progress
}

// reapLocked retires active jobs that can no longer advance: failed lanes
// (StageSearch), canceled ones (partial result + StageCanceled, decodeOne
// parity), and drained ones whose input is complete (final result).
func (s *LaneScheduler) reapLocked() bool {
	if len(s.active) == 0 {
		return false
	}
	progress := false
	keep := s.active[:0]
	for _, j := range s.active {
		switch {
		case j.lane.Err() != nil:
			cause := j.lane.Err()
			j.lane.Leave()
			s.releaseDecLocked(j)
			s.finishLocked(j, nil, &DecodeError{Utterance: j.utt, Stage: StageSearch, Cause: cause})
			progress = true
		case j.canceled || j.ctx.Err() != nil:
			// Stop where the search stands: drop unstepped frames, finish the
			// utterance over the frames already consumed.
			j.lane.DropPending()
			res := j.lane.Finish()
			cause := j.ctx.Err()
			if cause == nil {
				cause = context.Canceled
			}
			s.releaseDecLocked(j)
			s.finishLocked(j, res, &DecodeError{Utterance: j.utt, Stage: StageCanceled, Cause: cause})
			progress = true
		case j.inputDone && j.lane.Pending() == 0:
			res := j.lane.Finish()
			s.releaseDecLocked(j)
			s.finishLocked(j, res, nil)
			progress = true
		default:
			keep = append(keep, j)
		}
	}
	s.active = keep
	return progress
}

// stepLocked advances the group one frame with scorer-level panic recovery:
// the group already isolates per-lane frontier panics, so anything escaping
// Step faulted inside the batched scorer itself, where every active lane's
// state is suspect — fail them all, keep the scheduler serving.
func (s *LaneScheduler) stepLocked() (advanced int) {
	if len(s.active) == 0 {
		return 0
	}
	defer func() {
		if r := recover(); r != nil {
			for _, j := range s.active {
				j.lane.Leave()
				s.releaseDecLocked(j)
				s.finishLocked(j, nil, &DecodeError{
					Utterance: j.utt, Stage: StageScore,
					Cause: fmt.Errorf("recovered scorer panic: %v", r),
				})
			}
			s.active = s.active[:0]
			advanced = 0
		}
	}()
	return s.group.Step()
}

// drainLocked fails everything still inside a closing scheduler.
func (s *LaneScheduler) drainLocked() {
	for _, j := range s.queue {
		s.finishLocked(j, nil, &DecodeError{Utterance: j.utt, Stage: StageCanceled, Cause: ErrLaneSchedulerClosed})
	}
	s.queue = nil
	for _, j := range s.active {
		j.lane.Leave()
		s.releaseDecLocked(j)
		s.finishLocked(j, nil, &DecodeError{Utterance: j.utt, Stage: StageCanceled, Cause: ErrLaneSchedulerClosed})
	}
	s.active = nil
}

// releaseDecLocked returns the job's slot decoder to the free pool. The
// group slot itself is freed by the lane's Finish/Leave.
func (s *LaneScheduler) releaseDecLocked(j *laneJob) {
	s.freeDecs = append(s.freeDecs, j.di)
	if tel := s.cfg.Telemetry; tel != nil {
		tel.LaneActive.Dec()
		tel.LaneDrains.Inc()
	}
}

// finishLocked publishes the job's outcome and releases its watches.
func (s *LaneScheduler) finishLocked(j *laneJob, res *decoder.Result, derr *DecodeError) {
	j.res, j.err = res, derr
	j.finished = true
	if j.stop != nil {
		j.stop()
	}
	close(j.done)
}

// Decode runs a batch at full quality with no deadline.
func (s *LaneScheduler) Decode(featUtts [][][]float32) (*Batch, error) {
	return s.DecodeContext(context.Background(), featUtts, nil)
}

// DecodeContext decodes a batch of feature utterances (raw frames, not
// scores — scoring happens inside the lane group, batched across whatever
// mix of utterances occupies the slots at each step, including other
// callers' work). The returned Batch has the same shape and contracts as
// DecodePool's: index-aligned Results/Errors, per-utterance fault isolation,
// prompt cancellation with partial results, and a preset that applies to
// this batch's lanes only. Unlike DecodePool there is no whole-worker
// queueing: utterances from concurrent calls interleave in the same group,
// so a short request never waits behind a long one for anything more than a
// slot.
func (s *LaneScheduler) DecodeContext(ctx context.Context, featUtts [][][]float32, preset *decoder.SearchPreset) (*Batch, error) {
	return s.DecodeBiasContext(ctx, featUtts, preset, nil)
}

// DecodeBiasContext is DecodeContext with a tenant assignment: every lane
// this batch occupies decodes under the tenant's bias machine. The
// assignment installs at admission, per lane, so concurrently interleaved
// utterances from other tenants keep their own machines. A nil tb is
// byte-identical to DecodeContext.
func (s *LaneScheduler) DecodeBiasContext(ctx context.Context, featUtts [][][]float32, preset *decoder.SearchPreset, tb *TenantBias) (*Batch, error) {
	start := time.Now()
	// Exact (mcache-flushing) sampling, as in DecodePool: a warm batch
	// allocates so little that span-granular counters round it to zero.
	a0 := metrics.ReadAllocCountersExact()
	results := make([]*decoder.Result, len(featUtts))
	errs := make([]*DecodeError, len(featUtts))

	jobs := make([]*laneJob, len(featUtts))
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		b := &Batch{Results: results, Errors: errs}
		for i := range errs {
			errs[i] = &DecodeError{Utterance: i, Stage: StageCanceled, Cause: ErrLaneSchedulerClosed}
			b.Search.Canceled++
		}
		return b, ErrLaneSchedulerClosed
	}
	for i := range featUtts {
		j := &laneJob{
			ctx: ctx, preset: preset, tb: tb, utt: i,
			queued: featUtts[i], inputDone: true,
			done: make(chan struct{}),
		}
		j.stop = context.AfterFunc(ctx, s.wake)
		jobs[i] = j
		s.queue = append(s.queue, j)
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	for i, j := range jobs {
		<-j.done
		results[i], errs[i] = j.res, j.err
	}

	alloc := metrics.ReadAllocCountersExact().Delta(a0)
	b := &Batch{Results: results, Errors: errs}
	for _, r := range results {
		if r != nil {
			b.Decoder.Add(r.Stats)
		}
	}
	b.Decoder.AllocBytes = int64(alloc.Bytes)
	b.Decoder.AllocObjects = int64(alloc.Objects)
	b.Decoder.GCCycles = int64(alloc.GCs)
	b.Search = metrics.Search{Rescues: b.Decoder.Rescues, Failures: b.Decoder.SearchFailures}
	for _, e := range errs {
		if e == nil {
			continue
		}
		if e.Stage == StageCanceled {
			b.Search.Canceled++
		} else {
			b.Search.Panics++
		}
	}
	s.cfg.Telemetry.recordBatch(len(featUtts), time.Since(start),
		searchDelta{panics: b.Search.Panics, canceled: b.Search.Canceled})
	b.Throughput = metrics.Throughput{
		Utterances:   len(featUtts),
		Frames:       b.Decoder.Frames,
		Wall:         time.Since(start),
		CacheHits:    b.Decoder.MemoHits,
		CacheLookups: b.Decoder.MemoHits + b.Decoder.MemoMisses,
		AllocBytes:   int64(alloc.Bytes),
		AllocObjects: int64(alloc.Objects),
		GCCycles:     int64(alloc.GCs),
	}
	return b, ctx.Err()
}

// LaneHandle is a streamed utterance's grip on its lane: push feature
// chunks as they arrive, read partials between chunks, Finish for the final
// result. Methods must not be called concurrently with each other.
type LaneHandle struct {
	s *LaneScheduler
	j *laneJob
}

// OpenLane blocks until the utterance is admitted into a slot (honouring
// ctx) and returns its handle. The preset, when non-nil, degrades this lane
// only. The caller must end the lane with Finish or Close, or its slot leaks
// until ctx is canceled.
func (s *LaneScheduler) OpenLane(ctx context.Context, preset *decoder.SearchPreset) (*LaneHandle, error) {
	return s.OpenLaneBias(ctx, preset, nil)
}

// OpenLaneBias is OpenLane with a tenant assignment (see DecodeBiasContext);
// the stream decodes under tb's bias machine for its whole lifetime. A nil
// tb is byte-identical to OpenLane.
func (s *LaneScheduler) OpenLaneBias(ctx context.Context, preset *decoder.SearchPreset, tb *TenantBias) (*LaneHandle, error) {
	j := &laneJob{ctx: ctx, preset: preset, tb: tb, utt: -1, done: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrLaneSchedulerClosed
	}
	j.stop = context.AfterFunc(ctx, s.wake)
	s.queue = append(s.queue, j)
	s.cond.Broadcast()
	for j.lane == nil && !j.finished {
		s.cond.Wait()
	}
	s.mu.Unlock()
	if j.finished {
		if j.err != nil {
			return nil, j.err
		}
		return nil, ErrLaneSchedulerClosed
	}
	return &LaneHandle{s: s, j: j}, nil
}

// Push queues feature frames and blocks until the group has consumed them —
// backpressure at the lockstep rate. A lane that has already ended (failed,
// canceled, scheduler closed) reports its error; a healthy push returns nil
// even if the lane's search has died (the result then reports the failed
// search, exactly like a solo stream).
func (h *LaneHandle) Push(frames [][]float32) error {
	s, j := h.s, h.j
	s.mu.Lock()
	defer s.mu.Unlock()
	if !j.finished {
		j.lane.Push(frames)
		s.cond.Broadcast()
		for !j.finished && j.lane.Pending() > 0 {
			s.cond.Wait()
		}
	}
	if j.finished && j.err != nil {
		return j.err
	}
	return nil
}

// Partial returns the current best hypothesis.
func (h *LaneHandle) Partial() []int32 {
	s, j := h.s, h.j
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.finished {
		if j.res != nil {
			return j.res.Words
		}
		return nil
	}
	return j.lane.Partial()
}

// Finish marks the input complete and blocks for the final result —
// byte-identical to a solo decode of everything pushed. The error carries
// the lane's fault (panic, cancellation, close) when there is one; the
// result may still hold the partial decode in the cancellation case.
func (h *LaneHandle) Finish() (*decoder.Result, error) {
	s, j := h.s, h.j
	s.mu.Lock()
	j.inputDone = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-j.done
	if j.err != nil {
		return j.res, j.err
	}
	return j.res, nil
}

// Close abandons the lane without waiting for a result — the caller-side
// cancellation path (connection dropped). Blocks until the slot is released;
// safe to call after Finish.
func (h *LaneHandle) Close() {
	s, j := h.s, h.j
	s.mu.Lock()
	if !j.finished {
		j.canceled = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	<-j.done
}
