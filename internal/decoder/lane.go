package decoder

import (
	"fmt"

	"repro/internal/acoustic"
)

// LaneGroup advances up to `width` utterances in frame-synchronous lockstep:
// one batched scorer call per step produces the score row for every active
// lane (dense matrix work through acoustic.BatchScorer — the weight matrices
// stream through the cache once per step instead of once per utterance),
// then each lane runs its own tokenStore frontier step against its own
// on-the-fly composition state. This is the software shape of the batched
// GPU Viterbi decoders (PAPERS.md): amortize the dense compute across
// utterances, keep the sparse search per-utterance.
//
// Lanes join and leave mid-flight (continuous batching): a slot freed by a
// finished utterance is immediately reusable, and joining recycles the
// slot's stream, scratch set and scorer state in place, so steady-state
// operation — including the join/drain churn — performs no per-frame heap
// allocation.
//
// Determinism contract: a lane's result is byte-identical to a solo decode
// of the same frames on the same decoder configuration, regardless of group
// width, what the other lanes are doing, or the order in which lanes join.
// The two halves compose: ScoreStep rows are bitwise-identical to
// ScoreUtterance rows (see internal/acoustic/batch.go), and each lane's
// frontier step is exactly the Stream path already proven identical to
// batch Decode. The differential lane-vs-solo oracle locks this down.
//
// A LaneGroup is confined to one goroutine; internal/pool's LaneScheduler
// adds the concurrent admission machinery on top.
type LaneGroup struct {
	scorer acoustic.BatchScorer
	lanes  []Lane
	free   []int // free slot indices (LIFO: recently used slots stay warm)

	// Gather buffers, index-aligned with lanes: the per-step frame vector,
	// score row, and scorer state for each slot.
	feats  [][]float32
	rows   [][]float32
	states []acoustic.LaneState

	stats LaneStats
}

// LaneStats counts the group's lifetime activity. The headline ratio is
// ScorerCalls/Frames: solo frame-synchronous decoding costs one scorer call
// per lane per frame, a full group costs one call per step for all lanes.
type LaneStats struct {
	// ScorerCalls is the number of batched ScoreStep invocations.
	ScorerCalls int64
	// Frames is the total lane-frames advanced (summed over lanes).
	Frames int64
	// Steps counts lockstep iterations that advanced at least one lane.
	Steps int64
	// Joins and Drains count utterances entering and leaving slots.
	Joins  int64
	Drains int64
}

// ScorerCallsPerFrame is the dense-amortization ratio: 1.0 means solo-style
// scoring, 1/width is the full-group ideal.
func (s LaneStats) ScorerCallsPerFrame() float64 {
	if s.Frames == 0 {
		return 0
	}
	return float64(s.ScorerCalls) / float64(s.Frames)
}

// Lane is one slot of a LaneGroup: a persistent recycled Stream plus a
// queue of feature frames waiting to be stepped. The queue holds features,
// not scores — scoring happens inside LaneGroup.Step, where it batches
// across lanes.
type Lane struct {
	g       *LaneGroup
	idx     int
	s       *Stream
	pending [][]float32 // queued feature frames (aliases caller slices)
	head    int         // next pending index to step
	active  bool
	err     error // recovered panic from this lane's frontier step
}

// NewLaneGroup builds a group of width slots over a batch-capable scorer.
// All repo scorers (GMM/DNN/RNN) implement acoustic.BatchScorer; the error
// covers external Scorer implementations that do not.
func NewLaneGroup(scorer acoustic.Scorer, width int) (*LaneGroup, error) {
	bs, ok := scorer.(acoustic.BatchScorer)
	if !ok {
		return nil, fmt.Errorf("decoder: scorer %s does not support batched lane scoring", scorer.Name())
	}
	if width < 1 {
		return nil, fmt.Errorf("decoder: lane group width must be >= 1, got %d", width)
	}
	g := &LaneGroup{
		scorer: bs,
		lanes:  make([]Lane, width),
		free:   make([]int, 0, width),
		feats:  make([][]float32, width),
		rows:   make([][]float32, width),
		states: make([]acoustic.LaneState, width),
	}
	for i := range g.lanes {
		g.lanes[i] = Lane{g: g, idx: i}
		g.rows[i] = make([]float32, bs.ScoreDim())
		g.states[i] = bs.NewLaneState()
		g.free = append(g.free, i)
	}
	return g, nil
}

// Width reports the slot count.
func (g *LaneGroup) Width() int { return len(g.lanes) }

// Active reports how many slots currently hold an utterance.
func (g *LaneGroup) Active() int { return len(g.lanes) - len(g.free) }

// Stats snapshots the group's lifetime counters.
func (g *LaneGroup) Stats() LaneStats { return g.stats }

// ErrLanesFull is returned by Join when every slot is occupied.
var ErrLanesFull = fmt.Errorf("decoder: lane group full")

// Join attaches a new utterance to a free slot, decoding with d (which
// carries the lane's configuration, offset table and search preset). The
// slot's stream, scratch and scorer state are recycled in place, so a warm
// join allocates nothing. Returns ErrLanesFull when no slot is free.
func (g *LaneGroup) Join(d *OnTheFly) (*Lane, error) {
	if len(g.free) == 0 {
		return nil, ErrLanesFull
	}
	idx := g.free[len(g.free)-1]
	g.free = g.free[:len(g.free)-1]
	l := &g.lanes[idx]
	l.active = true
	l.err = nil
	l.head = 0
	l.pending = l.pending[:0]
	if l.s == nil {
		l.s = d.NewStream()
	} else {
		l.s.reset(d)
	}
	g.states[idx].Reset()
	g.stats.Joins++
	return l, nil
}

// Step advances the group by one frame: every active lane with a queued
// frame is scored in one batched ScoreStep call, then each runs its
// frontier step. Returns the number of lanes advanced (0 when every lane
// is idle or drained). Lanes whose search has died drop their remaining
// queue — a dead stream's Push is a no-op, so the result cannot change.
func (g *LaneGroup) Step() int {
	any := false
	for i := range g.lanes {
		l := &g.lanes[i]
		g.feats[i] = nil
		if !l.active || l.head >= len(l.pending) {
			continue
		}
		if l.s.dead || l.err != nil {
			l.pending = l.pending[:0]
			l.head = 0
			continue
		}
		g.feats[i] = l.pending[l.head]
		any = true
	}
	if !any {
		return 0
	}
	g.stats.ScorerCalls++
	g.scorer.ScoreStep(g.states, g.feats, g.rows)
	advanced := 0
	for i := range g.lanes {
		if g.feats[i] == nil {
			continue
		}
		l := &g.lanes[i]
		l.head++
		if l.head == len(l.pending) {
			l.pending = l.pending[:0]
			l.head = 0
		}
		l.step(g.rows[i])
		advanced++
	}
	g.stats.Frames += int64(advanced)
	g.stats.Steps++
	return advanced
}

// step pushes one score row through the lane's stream with panic isolation:
// a panic in this lane's frontier step (an out-of-range read on a poisoned
// row) marks the lane failed without disturbing the other lanes, mirroring
// the worker-pool isolation in internal/pool.decodeOne.
func (l *Lane) step(row []float32) {
	defer func() {
		if r := recover(); r != nil {
			l.err = fmt.Errorf("decoder: lane %d: recovered panic: %v", l.idx, r)
		}
	}()
	l.s.Push(row)
}

// Push queues feature frames for this lane. The slices are aliased, not
// copied; callers must not mutate them until the lane drains. Only valid on
// a joined lane.
func (l *Lane) Push(frames [][]float32) {
	l.pending = append(l.pending, frames...)
}

// Pending reports how many queued frames have not been stepped yet.
func (l *Lane) Pending() int { return len(l.pending) - l.head }

// DropPending discards the queued-but-unstepped frames — the cancellation
// path: the utterance ends at the frames already consumed, and Finish then
// returns that partial result without stepping further.
func (l *Lane) DropPending() {
	l.pending = l.pending[:0]
	l.head = 0
}

// Frames reports how many frames this lane's search has consumed.
func (l *Lane) Frames() int { return l.s.st.Frames }

// Err reports the recovered panic that failed this lane, if any.
func (l *Lane) Err() error { return l.err }

// Partial returns the lane's current best hypothesis (Stream.Partial).
func (l *Lane) Partial() []int32 { return l.s.Partial() }

// Finish drains the lane's remaining queue (stepping the whole group — the
// other lanes advance too, which is the lockstep invariant, not a side
// effect), ends the utterance, frees the slot, and returns the final
// result — byte-identical to a solo decode of the same frames. A failed
// lane (Err != nil) returns nil; its slot is still freed.
func (l *Lane) Finish() *Result {
	for l.active && l.Pending() > 0 && l.err == nil && !l.s.dead {
		if l.g.Step() == 0 {
			break
		}
	}
	if l.err != nil {
		l.release()
		return nil
	}
	res := l.s.Finish()
	l.release()
	return res
}

// Leave abandons the lane's utterance without a result and frees the slot —
// the cancellation/teardown path.
func (l *Lane) Leave() { l.release() }

// release returns the slot to the free list.
func (l *Lane) release() {
	if !l.active {
		return
	}
	l.active = false
	l.pending = l.pending[:0]
	l.head = 0
	l.g.free = append(l.g.free, l.idx)
	l.g.stats.Drains++
}
