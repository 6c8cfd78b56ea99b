// Package telemetry is the repo's stdlib-only observability layer: a
// metrics registry (counters, gauges, histograms, and scrape-time callback
// variants) with Prometheus text exposition, plus a lightweight per-decode
// span tracer (span.go). It is the production companion to the evaluation
// arithmetic in internal/metrics — where that package computes a number
// once per experiment, this one keeps the same quantities continuously
// observable while a server decodes live traffic.
//
// Two properties shape the design:
//
//   - Nil safety. Every instrument method has a nil-receiver no-op, and a
//     nil *Registry hands out nil instruments. Hot paths (the decoder frame
//     loop, the pool workers) therefore thread telemetry unconditionally
//     and pay a single predictable branch when it is disabled — the
//     zero-allocation gates in internal/decoder/alloc_test.go run with a
//     nil registry and still see zero allocations.
//
//   - Lock-free updates. Counters, gauges and histogram buckets are
//     atomics; the registry mutex is touched only at registration and
//     exposition time, never on the update path, so instruments can be
//     shared by every pool worker at once.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name/value pair attached to an instrument at
// registration time (e.g. the cache shard index). Instruments with the same
// metric name but different labels form one exposition family.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// kind is the Prometheus metric type of a family.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing value, safe for concurrent use.
// All methods are nil-receiver no-ops.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n to the counter; negative deltas are ignored (counters are
// monotonic by contract).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down, stored as float64 bits and
// updated atomically. All methods are nil-receiver no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add shifts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Inc adds one to the gauge.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one from the gauge.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution: observation counts per upper
// bound plus a running sum, all atomics. Buckets are chosen at registration
// and never reallocated, so Observe is allocation-free. All methods are
// nil-receiver no-ops.
type Histogram struct {
	upper  []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Buckets are few (≤ ~20); a linear scan beats binary search and stays
	// branch-predictable for the common small-value case.
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// LinearBuckets returns n upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// ExpBuckets returns n upper bounds start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// series is one labeled instrument within a family.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // CounterFunc/GaugeFunc callback
}

// family groups every series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   kind
	series []*series
}

// Registry holds instrument families and renders them in Prometheus text
// exposition format. The zero value is not usable; construct with
// NewRegistry. A nil *Registry is a valid "telemetry disabled" registry:
// every constructor returns a nil instrument and exposition writes nothing.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// lookup finds or creates the family and returns the existing series for
// the exact label set, if any. It panics on a kind conflict — two call
// sites disagreeing about a metric's type is a programming error that would
// otherwise silently corrupt the exposition.
func (r *Registry) lookup(name, help string, k kind, labels []Label) (*family, *series) {
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: k}
		r.fams[name] = f
	} else if f.kind != k {
		panic(fmt.Sprintf("telemetry: metric %q registered as both %s and %s", name, f.kind, k))
	}
	for _, s := range f.series {
		if labelsEqual(s.labels, labels) {
			return f, s
		}
	}
	return f, nil
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or retrieves, if already registered with the same
// labels) a counter. A nil registry returns a nil counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, s := r.lookup(name, help, kindCounter, labels)
	if s != nil {
		return s.c
	}
	c := &Counter{}
	f.series = append(f.series, &series{labels: labels, c: c})
	return c
}

// Gauge registers (or retrieves) a gauge. A nil registry returns nil.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, s := r.lookup(name, help, kindGauge, labels)
	if s != nil {
		return s.g
	}
	g := &Gauge{}
	f.series = append(f.series, &series{labels: labels, g: g})
	return g
}

// Histogram registers (or retrieves) a histogram over the given ascending
// bucket upper bounds (the +Inf bucket is implicit). A nil registry returns
// nil.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, s := r.lookup(name, help, kindHistogram, labels)
	if s != nil {
		return s.h
	}
	h := &Histogram{upper: append([]float64(nil), buckets...)}
	h.counts = make([]atomic.Int64, len(h.upper)+1)
	f.series = append(f.series, &series{labels: labels, h: h})
	return h
}

// CounterFunc registers a counter whose value is read from fn at exposition
// time — the shape used for counters that already live behind their own
// lock (the sharded LRU's per-shard counters). fn must be safe to call from
// the scrape goroutine. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, kindCounter, fn, labels)
}

// GaugeFunc registers a gauge read from fn at exposition time (heap size,
// goroutine counts, uptime). No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, kindGauge, fn, labels)
}

func (r *Registry) registerFunc(name, help string, k kind, fn func() float64, labels []Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, s := r.lookup(name, help, k, labels)
	if s != nil {
		s.fn = fn // re-registration replaces the callback
		return
	}
	f.series = append(f.series, &series{labels: labels, fn: fn})
}

// WriteTo renders the registry in Prometheus text exposition format 0.0.4:
// families sorted by name, series in registration order, histograms with
// cumulative le buckets plus _sum and _count. A nil registry writes
// nothing.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	// Registration appends to a family's series under the lock, so the
	// series lists are snapshotted here; rendering runs outside it because
	// function-backed series call into their owners.
	fams := make([]*family, len(names))
	lists := make([][]*series, len(names))
	for i, name := range names {
		fams[i] = r.fams[name]
		lists[i] = append([]*series(nil), fams[i].series...)
	}
	r.mu.Unlock()

	var b strings.Builder
	for i, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range lists[i] {
			writeSeries(&b, f, s)
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// writeSeries renders one instrument's sample lines.
func writeSeries(b *strings.Builder, f *family, s *series) {
	switch {
	case s.fn != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(s.labels, "", 0), formatValue(s.fn()))
	case s.c != nil:
		fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(s.labels, "", 0), s.c.Value())
	case s.g != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(s.labels, "", 0), formatValue(s.g.Value()))
	case s.h != nil:
		var cum int64
		for i, ub := range s.h.upper {
			cum += s.h.counts[i].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(s.labels, "le", ub), cum)
		}
		cum += s.h.counts[len(s.h.upper)].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(s.labels, "le", math.Inf(1)), cum)
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(s.labels, "", 0), formatValue(s.h.Sum()))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(s.labels, "", 0), s.h.Count())
	}
}

// labelString renders {k="v",...}; leKey non-empty appends the histogram
// le label. Returns "" for an unlabeled scalar series.
func labelString(labels []Label, leKey string, le float64) string {
	if len(labels) == 0 && leKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, escapeLabel(l.Value))
	}
	if leKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", leKey, formatValue(le))
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a float the way Prometheus expects: +Inf/-Inf
// spelled out, integers without exponent noise.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
	}
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	// %q handles quote and backslash escaping; newlines are the only extra
	// case, and %q renders them as \n already.
	return s
}

// Handler returns an http.Handler serving the text exposition — the
// /metrics endpoint. A nil registry serves an empty (but valid) page.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}
