package telemetry

import (
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestNilRegistry asserts the disabled-telemetry contract: a nil registry
// hands out nil instruments, every instrument method is a no-op, and
// exposition writes nothing. This is the seam the decoder's zero-allocation
// gates rely on.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "help")
	g := r.Gauge("g", "help")
	h := r.Histogram("h", "help", LinearBuckets(1, 1, 3))
	r.CounterFunc("cf", "help", func() float64 { return 1 })
	r.GaugeFunc("gf", "help", func() float64 { return 1 })
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out non-nil instruments: %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	g.Inc()
	g.Dec()
	h.Observe(2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	var sb strings.Builder
	if n, err := r.WriteTo(&sb); n != 0 || err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition wrote %d bytes, err %v", n, err)
	}
	rr := httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("nil registry handler status %d", rr.Code)
	}
}

// TestExpositionGolden pins the Prometheus text format byte-for-byte:
// family ordering (sorted by name), HELP/TYPE lines, label rendering,
// cumulative histogram buckets with the implicit +Inf, and _sum/_count.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("unfold_decodes_total", "Completed decodes.").Add(3)
	r.Gauge("unfold_workers_busy", "Workers mid-utterance.").Set(2)
	h := r.Histogram("unfold_frontier_tokens", "Active tokens per frame.", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	r.Counter("unfold_cache_hits_total", "Shard hits.", L("layer", "l2"), L("shard", "0")).Add(7)
	r.Counter("unfold_cache_hits_total", "Shard hits.", L("layer", "l2"), L("shard", "1")).Add(9)
	r.GaugeFunc("unfold_up", "Always one.", func() float64 { return 1 })

	const want = `# HELP unfold_cache_hits_total Shard hits.
# TYPE unfold_cache_hits_total counter
unfold_cache_hits_total{layer="l2",shard="0"} 7
unfold_cache_hits_total{layer="l2",shard="1"} 9
# HELP unfold_decodes_total Completed decodes.
# TYPE unfold_decodes_total counter
unfold_decodes_total 3
# HELP unfold_frontier_tokens Active tokens per frame.
# TYPE unfold_frontier_tokens histogram
unfold_frontier_tokens_bucket{le="10"} 1
unfold_frontier_tokens_bucket{le="100"} 2
unfold_frontier_tokens_bucket{le="+Inf"} 3
unfold_frontier_tokens_sum 555
unfold_frontier_tokens_count 3
# HELP unfold_up Always one.
# TYPE unfold_up gauge
unfold_up 1
# HELP unfold_workers_busy Workers mid-utterance.
# TYPE unfold_workers_busy gauge
unfold_workers_busy 2
`
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

// TestIdempotentRegistration asserts that registering the same
// name+label set twice returns the same instrument — pool construction
// registers decoder metrics once per telemetry set, and re-registration
// must not fork the series.
func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "help")
	b := r.Counter("c", "help")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	l1 := r.Counter("c", "help", L("k", "v"))
	if l1 == a {
		t.Fatal("distinct labels must return a distinct counter")
	}
	if g1, g2 := r.Gauge("g", "h"), r.Gauge("g", "h"); g1 != g2 {
		t.Fatal("gauge re-registration forked")
	}
	if h1, h2 := r.Histogram("h", "h", nil), r.Histogram("h", "h", nil); h1 != h2 {
		t.Fatal("histogram re-registration forked")
	}
}

// TestKindConflictPanics pins the fail-fast on type confusion.
func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name as two kinds must panic")
		}
	}()
	r.Gauge("m", "help")
}

// TestConcurrentInstruments hammers every instrument kind from many
// goroutines while a scraper renders the exposition — the -race gate for
// the lock-free update path against the locked exposition path.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "help")
	g := r.Gauge("g", "help")
	h := r.Histogram("h", "help", ExpBuckets(1, 2, 8))

	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				c.Add(2)
				g.Add(1)
				g.Dec() // +1 then -1: the gauge must settle at 0
				h.Observe(float64(i % 300))
				if i%100 == 0 {
					// Concurrent registration of the same series must be
					// safe and return the shared instrument.
					if got := r.Counter("c", "help"); got != c {
						panic("registration raced to a distinct counter")
					}
					// A series first registered mid-scrape (the server's
					// per-outcome latency histograms appear this way) must
					// not race the exposition's walk of its family.
					r.Counter("lazy", "help", L("series", strconv.Itoa(w*iters+i))).Inc()
				}
			}
		}(w)
	}
	// Scrape concurrently with the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if _, err := r.WriteTo(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	if want := int64(goroutines * iters * 3); c.Value() != want {
		t.Errorf("counter = %d, want %d", c.Value(), want)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %g, want 0", g.Value())
	}
	if h.Count() != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", h.Count(), goroutines*iters)
	}
}

// TestHistogramBuckets checks bucket assignment edges: values equal to an
// upper bound land in that bucket (le semantics), values above every bound
// land in +Inf.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", []float64{1, 2})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3} {
		h.Observe(v)
	}
	var sb strings.Builder
	r.WriteTo(&sb)
	for _, line := range []string{
		`h_bucket{le="1"} 2`,
		`h_bucket{le="2"} 4`,
		`h_bucket{le="+Inf"} 5`,
		`h_sum 8`,
		`h_count 5`,
	} {
		if !strings.Contains(sb.String(), line) {
			t.Errorf("exposition missing %q:\n%s", line, sb.String())
		}
	}
}

// TestCounterMonotonic pins that negative Add deltas are dropped rather
// than decreasing the counter.
func TestCounterMonotonic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "help")
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter accepted a negative delta: %d", c.Value())
	}
}

// TestFormatValue covers the exposition float rendering special cases.
func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		1:           "1",
		0.5:         "0.5",
		math.Inf(1): "+Inf",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%g) = %q, want %q", in, got, want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("formatValue(NaN) = %q", got)
	}
}
