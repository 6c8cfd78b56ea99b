package decoder

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/semiring"
	"repro/internal/telemetry"
)

// session is the one owner of a search frontier and the one frame loop:
// Decode runs a session over a whole utterance, and a Stream keeps one open
// across its Push and Feed calls. A session borrows a scratch set (token
// stores, lattice arena, closure worklist) and searches each frame in step,
// so every decode path shares one rescue rule and one frame count.
type session struct {
	d         *OnTheFly
	sc        *scratch
	cur, next *tokenStore
	st        Stats
	// dead is set when a frame empties the frontier with rescue off: cur
	// then keeps the last frontier, and later frames are counted in
	// Stats.Frames but not searched.
	dead bool
	// fault is the panic a public call caught (guard): the session is dead
	// for good, and its interrupted scratch set never goes back to the pool.
	fault error
}

// faultError is a panic a public session call caught: a runtime error in
// the search or the feeder's scoring, or a memory fault on a mapped graph
// (a truncated bundle file), which guard has the runtime raise as a panic.
type faultError struct{ v any }

func (e *faultError) Error() string { return fmt.Sprintf("recovered panic: %v", e.v) }

// guard runs call as one public session call (Decode, NewStream, Feed,
// Finish), never per frame, and returns the session's fault: an earlier
// call's, or the panic this one caught. It allocates nothing unless it
// catches.
func (s *session) guard(call func()) (err error) {
	defer func(old bool) {
		debug.SetPanicOnFault(old)
		if r := recover(); r != nil {
			s.fault = &faultError{r}
		}
		err = s.fault
	}(debug.SetPanicOnFault(true))
	if s.fault == nil {
		call()
	}
	return nil
}

// open arms s for a fresh utterance on d over the scratch set sc: the
// composed start state and its epsilon closure.
func (s *session) open(d *OnTheFly, sc *scratch) {
	s.d, s.sc = d, sc
	s.cur, s.next = sc.cur, sc.next
	s.st = Stats{}
	s.dead = false
	sc.lat.reset()
	s.cur.reset(0)
	s.cur.relax(d.startKey(), semiring.One, -1)
	d.epsClosure(s.cur, &sc.lat, &s.st, semiring.Zero, -1, sc)
	d.hook(-1, s.cur)
}

// feed searches src's rows 0 to n-1 as the session's next n frames,
// checking ctx before each. On cancellation Stats.Frames counts the frames
// actually searched; after a search death it counts every frame supplied,
// and the rest are not read.
func (s *session) feed(ctx context.Context, src Feeder, n int) error {
	for i := 0; i < n; i++ {
		if s.dead {
			s.st.Frames += n - i
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		s.step(src, i)
	}
	return nil
}

// step searches one frame, src's row i.
//
// When Config.RescueWidenings is positive, a frame that empties the
// active-token set is retried from a pre-pruning snapshot with the beam and
// MaxActive doubled per attempt; if every widening fails (e.g. a fully
// poisoned score frame, which no beam can cure), the frame is skipped and
// the search continues from the snapshot — graceful degradation instead of
// a truncated hypothesis when one frame is unsearchable. With rescue off
// the search dies there, keeping the frontier it had.
func (s *session) step(src Feeder, i int) {
	d, sc := s.d, s.sc
	f := s.st.Frames
	s.st.Frames++
	widenings := d.cfg.RescueWidenings
	if widenings > 0 {
		sc.snap.copyFrom(s.cur)
	}
	beam, maxActive := d.beam, d.maxActive
	for attempt := 0; ; attempt++ {
		d.stepFrame(s.cur, s.next, src, i, beam, maxActive, &sc.lat, &s.st, f, sc)
		if s.next.len() > 0 || attempt == widenings {
			break
		}
		// Bounded escalation: restore the pre-pruning frontier and retry
		// the frame with double the beam and double the histogram cap.
		s.st.Rescues++
		beam *= 2
		if maxActive > 0 {
			maxActive *= 2
		}
		s.cur.copyFrom(sc.snap)
	}
	if s.next.len() > 0 {
		s.cur, s.next = s.next, s.cur
	} else {
		s.st.SearchFailures++
		if widenings == 0 {
			s.dead = true
			return
		}
		// Unsearchable frame (no widening helped): skip it and keep the
		// pre-frame frontier alive instead of truncating.
		s.cur.copyFrom(sc.snap)
	}
	d.hook(f, s.cur)
	d.cfg.Telemetry.observeFrontier(s.cur.len())
}

// result is the session's best hypothesis as it stands.
func (s *session) result() *Result { return s.d.finish(s.cur, &s.sc.lat, s.st) }

// Stream is an incremental (frame-at-a-time) interface over the on-the-fly
// decoder — the shape a real-time recognizer exposes: acoustic score rows
// are pushed as the GPU produces each batch, and the current-best partial
// hypothesis is available at any time. A Stream is the session a batch
// Decode runs, kept open between calls, so fed the same rows it produces
// exactly Decode's result, rescue and search death included.
//
// A Stream borrows one scratch set from the shared pool at creation and
// owns it until Close, so a steady-state Push performs no per-frame heap
// allocation beyond the amortized growth of the word lattice, and the next
// stream gets the set warm. A fault in NewStream, Feed, Push or Finish ends
// the stream: Feed and Push return it then and on every later call,
// Partial returns nil and Finish a Result with no words.
type Stream struct {
	session

	// Telemetry state: counters are published once per Push or Feed call
	// (the Stats advance since the last one), so a /metrics scrape
	// mid-utterance sees the live search, not just completed streams.
	// published is what has been pushed to the registry so far.
	published Stats
	start     time.Time
	span      telemetry.Span
}

// NewStream starts an incremental decode on d.
func (d *OnTheFly) NewStream() *Stream {
	s := &Stream{}
	s.guard(func() {
		s.sc = getScratch()
		s.reset(d)
	})
	return s
}

// reset arms the stream for a fresh utterance on decoder d, reusing its
// scratch set in place: after reset the stream is indistinguishable from a
// NewStream on d. The previous utterance must be finished or abandoned
// first.
func (s *Stream) reset(d *OnTheFly) {
	tel := d.cfg.Telemetry
	s.published = Stats{}
	s.start, s.span = tel.now(), tel.startSpan("stream")
	s.open(d, s.sc)
}

// Push consumes one frame of acoustic scores (1-based senone indexing).
func (s *Stream) Push(frame []float32) error {
	if len(frame) == 0 {
		return fmt.Errorf("decoder: empty frame")
	}
	s.sc.one[0] = frame
	return s.Feed(s.sc.rows(s.sc.one[:]), 1)
}

// Feed consumes src's rows 0 to n-1 as the stream's next n frames, each
// read when the search reaches it (see Feeder), so a feeder that scores on
// demand scores only what the search reads. After a search death the rest
// are not read. The error is the stream's fault, if it has one.
func (s *Stream) Feed(src Feeder, n int) error {
	return s.guard(func() {
		s.feed(context.Background(), src, n)
		s.d.cfg.Telemetry.publishDelta(s.st, s.published)
		s.published = s.st
	})
}

// Partial returns the current best hypothesis without ending the stream —
// what a UI would display while the user is still speaking. Finality is
// ignored: the utterance is not over.
func (s *Stream) Partial() []int32 {
	if s.fault != nil {
		return nil
	}
	best := semiring.Zero
	lat := int32(-1)
	for _, t := range s.cur.toks {
		if t.cost < best {
			best, lat = t.cost, t.lat
		}
	}
	if semiring.IsZero(best) {
		return nil
	}
	words, _ := s.sc.lat.backtrace(lat)
	return words
}

// Finish ends the utterance and returns the final result, identical to a
// batch Decode over the same frames.
func (s *Stream) Finish() (res *Result) {
	if s.guard(func() {
		res = s.result()
		s.d.cfg.Telemetry.recordStream(res.Stats, s.published, s.start, s.span)
		s.published = res.Stats
	}) != nil {
		return &Result{Cost: semiring.Zero, Stats: s.st} // no words
	}
	return res
}

// Close returns the stream's scratch set to the shared pool, unless a fault
// interrupted it. The stream must not be used afterwards (Finish's Result
// stays valid: it copies what it keeps). Close is idempotent.
func (s *Stream) Close() {
	if s.sc != nil && s.fault == nil {
		putScratch(s.sc)
		s.sc, s.cur, s.next = nil, nil, nil
	}
}
