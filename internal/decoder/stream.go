package decoder

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/semiring"
	"repro/internal/telemetry"
)

// Stream is an incremental (frame-at-a-time) interface over the on-the-fly
// decoder — the shape a real-time recognizer exposes: acoustic score rows
// are pushed as the GPU produces each batch, and the current-best partial
// hypothesis is available at any time. A Stream fed the same rows as a
// batch Decode call produces exactly the same result.
//
// A Stream borrows one scratch set (token stores, lattice arena, closure
// worklist) from the shared pool at creation and owns it for its lifetime,
// so a steady-state Push performs no per-frame heap allocation beyond the
// amortized growth of the word lattice.
type Stream struct {
	d       *OnTheFly
	sc      *scratch
	sampler *metrics.AllocSampler
	cur     *tokenStore
	next    *tokenStore
	st      Stats
	a0      metrics.AllocCounters
	dead    bool
	frozen  *tokenStore // last non-empty frontier if the search dies

	// Telemetry state: counters are published incrementally (every Push
	// adds the frame's Stats delta) so a /metrics scrape mid-utterance sees
	// the live search, not just completed streams. published is the
	// high-water mark of what has been pushed to the registry so far.
	published Stats
	start     time.Time
	span      telemetry.Span
}

// NewStream starts an incremental decode on d.
func (d *OnTheFly) NewStream() *Stream {
	s := &Stream{sc: getScratch(), sampler: metrics.NewAllocSampler()}
	s.reset(d)
	return s
}

// reset arms the stream for a fresh utterance on decoder d, reusing its
// scratch set (token stores, lattice arena, worklist) in place: after reset
// the stream is indistinguishable from a NewStream on d. The previous
// utterance must be finished or abandoned first.
func (s *Stream) reset(d *OnTheFly) {
	tel := d.cfg.Telemetry
	s.d = d
	s.cur, s.next = s.sc.cur, s.sc.next
	s.st = Stats{}
	s.published = Stats{}
	s.dead = false
	s.frozen = nil
	s.a0 = s.sampler.Read()
	s.start = tel.now()
	s.span = tel.startSpan("stream")
	s.sc.lat.reset()
	s.cur.reset(0)
	s.cur.relax(d.startKey(), semiring.One, -1)
	d.epsClosure(s.cur, &s.sc.lat, &s.st, semiring.Zero, -1, s.sc)
	d.hook(-1, s.cur)
}

// Push consumes one frame of acoustic scores (1-based senone indexing).
func (s *Stream) Push(frame []float32) error {
	if s.dead {
		return nil // search died earlier; Finish reports the best partial
	}
	if len(frame) == 0 {
		return fmt.Errorf("decoder: empty frame")
	}
	beam, maxActive := s.d.searchParams()
	f := s.st.Frames
	s.st.Frames++
	s.d.stepFrame(s.cur, s.next, frame, beam, maxActive, &s.sc.lat, &s.st, f, s.sc)
	if s.next.len() == 0 {
		s.dead = true
		s.st.SearchFailures++
		s.frozen = s.cur
		s.publish()
		return nil
	}
	s.cur, s.next = s.next, s.cur
	s.d.hook(f, s.cur)
	s.publish()
	return nil
}

// publish pushes the Stats advance since the last publication into the
// decoder's telemetry set, plus this frame's frontier size. One branch and
// no work when telemetry is disabled.
func (s *Stream) publish() {
	tel := s.d.cfg.Telemetry
	if tel == nil {
		return
	}
	tel.publishDelta(s.st, s.published)
	s.published = s.st
	tel.observeFrontier(s.frontier().len())
}

// frontier returns the live active set (or the frozen one after a search
// death).
func (s *Stream) frontier() *tokenStore {
	if s.dead {
		return s.frozen
	}
	return s.cur
}

// Partial returns the current best hypothesis without ending the stream —
// what a UI would display while the user is still speaking. Finality is
// ignored: the utterance is not over.
func (s *Stream) Partial() []int32 {
	frontier := s.frontier()
	best := semiring.Zero
	lat := int32(-1)
	for i := range frontier.toks {
		if frontier.toks[i].cost < best {
			best, lat = frontier.toks[i].cost, frontier.toks[i].lat
		}
	}
	if semiring.IsZero(best) {
		return nil
	}
	words, _ := s.sc.lat.backtrace(lat)
	return words
}

// Finish ends the utterance and returns the final result, identical to a
// batch Decode over the same frames. The result carries the allocation/GC
// counters accumulated since NewStream.
func (s *Stream) Finish() *Result {
	res := s.d.finish(s.frontier(), &s.sc.lat, s.st)
	res.Stats.recordAlloc(s.a0)
	s.d.cfg.Telemetry.recordStream(s.st, s.published, s.start, s.span)
	s.published = s.st
	return res
}
