package decoder

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/acoustic"
	"repro/internal/metrics"
	"repro/internal/semiring"
)

// Pipeline decouples acoustic scoring from Viterbi search — the asynchronous
// decoder shape of Lv et al. (PAPERS.md): a producer stage scores feature
// frames up to Lookahead frames ahead of the search and a consumer stage
// (the caller's goroutine) runs the tokenStore frontier step, connected by a
// bounded single-producer/single-consumer ring of preallocated score rows.
// Scoring batches whole lookahead windows per scorer call
// (acoustic.WindowScorer), so on the dense DNN/RNN scorers the pipeline buys
// twice: the window batching fills the FPU pipeline with four frames' dot
// chains per weight row (the dot4 economics of batch.go), and the score-ahead
// overlap hides scoring latency behind search on multi-core hosts.
//
// Why SPSC: exactly one goroutine (the producer, spawned at construction)
// writes score rows and advances the ring tail, and exactly one (whichever
// goroutine calls Decode/Push — the Pipeline is single-utterance, not
// thread-safe) consumes rows and advances the head. With a single writer and
// a single reader the ring needs no per-row synchronization — one mutex+cond
// pair covers the head/tail indices, and rows are handed over by index, never
// copied or reallocated. Steady state allocates nothing: the ring rows, the
// window gather buffers and the scorer's window state are all preallocated
// at construction.
//
// Determinism contract: results are byte-identical to the synchronous path
// (score everything with ScoreUtterance, then Decode) at any Lookahead — the
// scorer rows are bitwise-identical (window.go), and the search consumes
// them in frame order through exactly the decode loop otf.go runs. Lookahead
// 0 short-circuits to that synchronous path itself. The differential oracle,
// fuzzer and golden replays in pipeline_test.go lock both halves down.
//
// Cancellation drains cleanly through the PR-2 seams: a context cancellation
// (or a recovered scorer panic on the producer) surfaces as the usual
// partial-result-plus-error, and reset invalidates any in-flight window via
// a generation counter, so an aborted utterance can never leak stale rows
// into the next one.
type Pipeline struct {
	d  *OnTheFly
	sc acoustic.Scorer
	ws acoustic.WindowScorer // nil iff k == 0
	k  int

	state acoustic.LaneState // window state: recurrence + per-window scratch

	mu   sync.Mutex
	cond *sync.Cond
	// Utterance state, guarded by mu.
	feats    [][]float32 // submitted feature frames (aliased, not copied)
	scored   int         // frames the producer has scored so far
	searched int         // frames the consumer has released so far
	gen      int         // utterance generation; a bump discards in-flight windows
	scoring  bool        // producer is inside a ScoreWindow call (mu released)
	closed   bool
	err      error // recovered scorer panic; sticky until the next utterance

	// The lookahead ring: k preallocated score rows between the stages.
	// rows[rHead] is the next row the search consumes; rCount rows are
	// scored-but-unsearched. Only the consumer moves rHead, only the
	// producer grows rCount.
	rows   [][]float32
	rHead  int
	rCount int

	fbuf, obuf [][]float32 // producer's window gather scratch

	done chan struct{} // producer goroutine exited
}

// NewPipeline builds a score-ahead pipeline over decoder d and the given
// scorer, with the lookahead depth taken from d's Config.Lookahead. Depth 0
// degenerates to the synchronous path (no producer goroutine, no ring);
// depth > 0 requires the scorer to implement acoustic.WindowScorer, which
// all repo scorers do. Close must be called when a depth > 0 pipeline is no
// longer needed, or its producer goroutine leaks.
func NewPipeline(d *OnTheFly, scorer acoustic.Scorer) (*Pipeline, error) {
	k := d.cfg.Lookahead
	if k < 0 {
		return nil, fmt.Errorf("decoder: negative pipeline lookahead %d", k)
	}
	p := &Pipeline{d: d, sc: scorer, k: k}
	if k == 0 {
		return p, nil
	}
	ws, ok := scorer.(acoustic.WindowScorer)
	if !ok {
		return nil, fmt.Errorf("decoder: scorer %s does not support window scoring (lookahead %d)", scorer.Name(), k)
	}
	p.ws = ws
	p.state = ws.NewWindowState(k)
	p.rows = make([][]float32, k)
	for i := range p.rows {
		p.rows[i] = make([]float32, ws.ScoreDim())
	}
	p.fbuf = make([][]float32, k)
	p.obuf = make([][]float32, k)
	p.cond = sync.NewCond(&p.mu)
	p.done = make(chan struct{})
	go p.produce()
	return p, nil
}

// Lookahead reports the pipeline depth (0 = synchronous).
func (p *Pipeline) Lookahead() int { return p.k }

// produce is the scoring stage: it waits for submitted frames and ring
// space, gathers the largest window both allow, scores it in one
// WindowScorer call with the mutex released, and publishes the rows by
// advancing rCount. A generation mismatch after scoring means the utterance
// was reset mid-window; the rows are discarded unpublished.
func (p *Pipeline) produce() {
	defer close(p.done)
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for !p.closed && (p.err != nil || p.scored >= len(p.feats) || p.rCount >= p.k) {
			p.cond.Wait()
		}
		if p.closed {
			return
		}
		w := len(p.feats) - p.scored
		if free := p.k - p.rCount; w > free {
			w = free
		}
		slot := p.rHead + p.rCount
		for i := 0; i < w; i++ {
			p.fbuf[i] = p.feats[p.scored+i]
			p.obuf[i] = p.rows[(slot+i)%p.k]
		}
		gen := p.gen
		p.scoring = true
		p.mu.Unlock()
		err := p.scoreWindow(p.fbuf[:w], p.obuf[:w])
		p.mu.Lock()
		p.scoring = false
		if p.gen == gen {
			if err != nil {
				p.err = err
			} else {
				p.scored += w
				p.rCount += w
			}
		}
		p.cond.Broadcast()
	}
}

// scoreWindow runs one window through the scorer with panic containment: a
// panicking scorer (poisoned weights, fault injection) must fail the
// utterance with an error, not crash the process from a bare goroutine.
func (p *Pipeline) scoreWindow(frames, out [][]float32) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("decoder: pipeline scorer panic: %v", r)
		}
	}()
	p.ws.ScoreWindow(p.state, frames, out)
	return nil
}

// submit hands feature frames to the scoring stage. The slices are aliased,
// not copied; callers must not mutate them until the utterance finishes.
func (p *Pipeline) submit(frames [][]float32) {
	p.mu.Lock()
	p.feats = append(p.feats, frames...)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// nextRow blocks until the ring holds the next scored row and returns it.
// The row stays valid until releaseRow. The caller must have submitted more
// frames than it has released, or nextRow deadlocks. A sticky producer error
// is returned once all rows scored before the failure are consumed.
func (p *Pipeline) nextRow() ([]float32, error) {
	tel := p.d.cfg.Telemetry
	p.mu.Lock()
	if p.rCount == 0 && p.err == nil {
		tel.countStall()
		for p.rCount == 0 && p.err == nil {
			p.cond.Wait()
		}
	}
	if p.rCount == 0 {
		err := p.err
		p.mu.Unlock()
		return nil, err
	}
	row := p.rows[p.rHead]
	lead := p.rCount
	p.mu.Unlock()
	tel.observeScoreLead(lead)
	return row, nil
}

// releaseRow returns the row obtained from the last nextRow to the producer.
func (p *Pipeline) releaseRow() {
	p.mu.Lock()
	p.rHead = (p.rHead + 1) % p.k
	p.rCount--
	p.searched++
	p.cond.Broadcast()
	p.mu.Unlock()
}

// reset re-arms the pipeline for a fresh utterance: it invalidates any
// window the producer is scoring right now (generation bump — the producer
// discards the rows unpublished), waits the in-flight call out so the scorer
// state is quiescent, then clears the queue, the ring, the sticky error and
// the scorer's recurrence. This is both the start-of-utterance path and the
// cancellation drain: after reset the ring holds nothing from the previous
// utterance.
func (p *Pipeline) reset() {
	if p.k == 0 {
		return
	}
	p.mu.Lock()
	p.gen++
	for p.scoring {
		p.cond.Wait()
	}
	p.feats = p.feats[:0]
	p.scored, p.searched = 0, 0
	p.rHead, p.rCount = 0, 0
	p.err = nil
	p.state.Reset()
	p.mu.Unlock()
}

// Close stops the producer goroutine and waits for it to exit. Safe to call
// more than once; a no-op at lookahead 0. The Pipeline must not be used
// afterwards.
func (p *Pipeline) Close() {
	if p.k == 0 {
		return
	}
	p.mu.Lock()
	p.gen++
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	<-p.done
}

// Decode scores and searches one utterance of feature frames.
func (p *Pipeline) Decode(frames [][]float32) *Result {
	res, _ := p.DecodeContext(context.Background(), frames)
	return res
}

// DecodeContext is Decode with deadline/cancellation semantics, mirroring
// OnTheFly.DecodeContext: the context is checked once per frame, and on
// cancellation the best partial hypothesis is returned with ctx.Err(). At
// lookahead 0 this IS the synchronous path: one ScoreUtterance call, then
// the ordinary decode. At lookahead > 0 the same search loop runs against
// ring rows while the producer scores ahead; results are byte-identical.
func (p *Pipeline) DecodeContext(ctx context.Context, frames [][]float32) (*Result, error) {
	if p.k == 0 {
		return p.d.DecodeContext(ctx, p.sc.ScoreUtterance(frames))
	}
	tel := p.d.cfg.Telemetry
	start := tel.now()
	sp := tel.startSpan("pipeline")
	a0 := metrics.ReadAllocCounters()
	res, err := p.decode(ctx, frames)
	res.Stats.recordAlloc(a0)
	tel.recordDecode(res.Stats, start, sp)
	return res, err
}

// decode is the pipelined DecodeContext body: otf.go's decode loop, with
// scores[f] replaced by a blocking ring read. Every branch — the per-frame
// context check, the rescue snapshot and widening retries (the held row
// stays valid across retries), the unsearchable-frame skip, the search-death
// return — keeps the exact order and Stats accounting of the synchronous
// loop, which is what makes the two paths byte-identical.
func (p *Pipeline) decode(ctx context.Context, frames [][]float32) (*Result, error) {
	d := p.d
	cfg := d.cfg
	tel := cfg.Telemetry
	p.reset()
	p.submit(frames)
	sc := getScratch()
	defer putScratch(sc)
	lat := &sc.lat
	lat.reset()
	st := Stats{Frames: len(frames)}

	cur, next, snap := sc.cur, sc.next, sc.snap
	cur.reset(0)
	cur.relax(d.startKey(), semiring.One, -1)
	d.epsClosure(cur, lat, &st, semiring.Zero, -1, sc)
	d.hook(-1, cur)

	for f := range frames {
		if err := ctx.Err(); err != nil {
			st.Frames = f // frames actually searched
			p.reset()     // drain: discard in-flight and queued scoring work
			return d.finish(cur, lat, st), err
		}
		row, err := p.nextRow()
		if err != nil {
			st.Frames = f
			p.reset()
			return d.finish(cur, lat, st), err
		}
		if cfg.RescueWidenings > 0 {
			snap.copyFrom(cur)
		}
		beam, maxActive := d.searchParams()
		d.stepFrame(cur, next, row, beam, maxActive, lat, &st, f, sc)
		for attempt := 0; next.len() == 0 && attempt < cfg.RescueWidenings; attempt++ {
			st.Rescues++
			beam *= 2
			if maxActive > 0 {
				maxActive *= 2
			}
			cur.copyFrom(snap)
			d.stepFrame(cur, next, row, beam, maxActive, lat, &st, f, sc)
		}
		p.releaseRow()
		if next.len() == 0 {
			st.SearchFailures++
			if cfg.RescueWidenings > 0 {
				cur.copyFrom(snap)
				d.hook(f, cur)
				tel.observeFrontier(cur.len())
				continue
			}
			p.reset() // the search died; frames still in flight are moot
			return d.finish(cur, lat, st), nil
		}
		cur, next = next, cur
		d.hook(f, cur)
		tel.observeFrontier(cur.len())
	}
	return d.finish(cur, lat, st), nil
}

// PipeStream is the incremental interface over a Pipeline — Stream semantics
// with scoring folded in: Push takes feature frames (not score rows), hands
// them to the scoring stage, and advances the search over every frame pushed
// so far before returning. Within one Push the stages overlap (the producer
// scores frame t+1..t+k while the search steps frame t); across Push calls
// the search is fully caught up, so configuration applied between pushes — a
// DegradedPreset, say — takes effect at a deterministic frame boundary,
// exactly as it does on a plain Stream.
//
// At lookahead 0 Push scores each chunk with one synchronous ScoreUtterance
// call, byte-identical to the pre-pipeline solo streaming path (for the RNN
// that path restarts the recurrence each chunk — the documented chunked-
// stream trade-off). At lookahead > 0 the window state carries the
// recurrence across pushes, matching the batch and lane semantics instead.
type PipeStream struct {
	p *Pipeline
	s *Stream
}

// NewStream starts an incremental pipelined decode. Only one stream (or
// batch decode) may be active on a Pipeline at a time; starting a new one
// abandons any unfinished predecessor.
func (p *Pipeline) NewStream() *PipeStream {
	p.reset()
	return &PipeStream{p: p, s: p.d.NewStream()}
}

// Push submits feature frames and advances the search over everything
// submitted so far. The frame slices are aliased until the utterance ends.
func (ps *PipeStream) Push(frames [][]float32) error {
	p := ps.p
	if p.k == 0 {
		for _, row := range p.sc.ScoreUtterance(frames) {
			if err := ps.s.Push(row); err != nil {
				return err
			}
		}
		return nil
	}
	p.submit(frames)
	return ps.drain()
}

// drain steps the search until it has consumed every submitted frame. A dead
// stream keeps consuming rows (its Push is a no-op), so the ring never
// wedges on a failed search.
func (ps *PipeStream) drain() error {
	p := ps.p
	for {
		p.mu.Lock()
		pending := len(p.feats) - p.searched
		p.mu.Unlock()
		if pending == 0 {
			return nil
		}
		row, err := p.nextRow()
		if err != nil {
			return err
		}
		serr := ps.s.Push(row)
		p.releaseRow()
		if serr != nil {
			return serr
		}
	}
}

// Partial returns the current best hypothesis without ending the stream.
func (ps *PipeStream) Partial() []int32 { return ps.s.Partial() }

// Finish ends the utterance and returns the final result, identical to a
// batch decode over the same frames. The error is non-nil only when the
// scoring stage failed mid-utterance; the result then covers the frames
// searched before the failure.
func (ps *PipeStream) Finish() (*Result, error) {
	var err error
	if ps.p.k > 0 {
		err = ps.drain()
		ps.p.reset()
	}
	return ps.s.Finish(), err
}

// Abort abandons the utterance without a result, draining the scoring stage.
func (ps *PipeStream) Abort() { ps.p.reset() }
