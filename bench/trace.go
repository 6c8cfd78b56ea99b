package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names. bench.op is the root of one operation (an utterance or a
// request); the others wrap one call into the layer they are named after.
const (
	spanOp         = "bench.op"
	spanGenLate    = "bench.gen_late" // due time -> request written, open loop only
	spanTaskBuild  = "task.build"
	spanSaveFlat   = "unfold.save_flat"
	spanLoadFast   = "unfold.load_fast"
	spanRecognize  = "unfold.recognize" // the cold-start probe's unsplit Recognize
	spanClose      = "unfold.close"
	spanScore      = "acoustic.score"
	spanDecode     = "decoder.decode"
	spanStreamPush = "decoder.stream_push"
	spanPartial    = "decoder.partial"
	spanPoolBatch  = "pool.batch"
	spanHTTPRecog  = "http.recognize"
	spanHTTPStream = "http.stream"
)

// span is one timed call. Start and End are nanoseconds since the tracer
// was created; Parent is the ID of the enclosing span or -1; Op is shared
// by every span of one utterance or request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced pass: one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	return t.beginAt(name, parent, op, time.Now())
}

// beginAt opens a span that started at a known time (a request's due time).
func (t *tracer) beginAt(name string, parent, op int, at time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: at.Sub(t.t0).Nanoseconds(), End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// call wraps fn in a span.
func (t *tracer) call(name string, parent, op int, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
}

// snapshot returns the finished spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as bench/out/trace_<workload>.json.
func (t *tracer) write(dir, workload string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), data, 0o644)
}

// spanTotals aggregates spans by name.
type spanTotals struct {
	count int
	total int64 // summed duration, ns
	self  int64 // summed duration minus the part covered by children, ns
}

// covered is the length of the union of the children's intervals clipped to
// [start, end].
func covered(start, end int64, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var sum int64
	at := start
	for _, c := range children {
		lo, hi := max(c.Start, at), min(c.End, end)
		if hi > lo {
			sum += hi - lo
			at = hi
		}
	}
	return sum
}

// selfTimes computes per-name totals and self times, and the summed
// child-covered time of every span (indexed by span ID).
func selfTimes(spans []span) (map[string]*spanTotals, map[int]int64) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	totals := map[string]*spanTotals{}
	cover := map[int]int64{}
	for _, s := range spans {
		t := totals[s.Name]
		if t == nil {
			t = &spanTotals{}
			totals[s.Name] = t
		}
		c := covered(s.Start, s.End, children[s.ID])
		cover[s.ID] = c
		t.count++
		t.total += s.End - s.Start
		t.self += s.End - s.Start - c
	}
	return totals, cover
}

// spanSumRatio is children / parent over every span named parent: the share
// of the operations' wall time the layer spans account for.
func spanSumRatio(spans []span, parent string) float64 {
	_, cover := selfTimes(spans)
	var num, den int64
	for _, s := range spans {
		if s.Name == parent {
			num += cover[s.ID]
			den += s.End - s.Start
		}
	}
	return ratio(float64(num), float64(den))
}
