package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3} // sorted: 1 2 3 4 5
	for _, c := range []struct{ p, want float64 }{{0.5, 3}, {0.9, 4.6}, {0.25, 2}} {
		if got := percentile(vals, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(vals, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: got %v", got)
	}
}

// The sample-count rule: a percentile needs ten samples beyond it.
func TestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{99, 0.90, false}, {100, 0.90, true}, {199, 0.95, false}, {200, 0.95, true}, {999, 0.99, false}, {1000, 0.99, true}, {20, 0.50, true}, {19, 0.50, false}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// quartileSpread must agree with Python's statistics.quantiles(v, n=4):
// for 1..10 the cut points are 2.75, 5.5 and 8.25.
func TestQuartileSpread(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("single value: spread %v", got)
	}
}

func TestWER(t *testing.T) {
	for _, c := range []struct {
		ref, hyp []int32
		want     int
	}{
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, 0},
		{[]int32{1, 2, 3}, []int32{1, 9, 3}, 1},    // substitution
		{[]int32{1, 2, 3}, []int32{1, 3}, 1},       // deletion
		{[]int32{1, 2, 3}, []int32{1, 2, 7, 3}, 1}, // insertion
		{[]int32{1, 2, 3}, nil, 3},
		{nil, []int32{4, 5}, 2},
	} {
		if got := editDistance(c.ref, c.hyp); got != c.want {
			t.Errorf("editDistance(%v, %v) = %d, want %d", c.ref, c.hyp, got, c.want)
		}
	}
	refs := [][]int32{{1, 2, 3}, {4, 5, 6, 7, 8}}
	hyps := [][]int32{{1, 2, 3}, {4, 5, 9, 7}}
	if got := werPct(refs, hyps); !near(got, 25) {
		t.Errorf("werPct = %v, want 25 (2 errors in 8 words)", got)
	}
}

func TestScheduleDeterminism(t *testing.T) {
	gen := func(seed int64) []request {
		return makeSchedule(rand.New(rand.NewSource(seed)), 3*128, 100, 64, biasTenants)
	}
	a, b := gen(7), gen(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, gen(8)) {
		t.Fatal("different seeds, same schedule")
	}
	perKey := make([]int, 128)
	biased := 0
	for i, r := range a {
		perKey[r.key()]++
		if r.tenant >= 0 {
			biased++
			if i%biasEvery != biasEvery-1 {
				t.Fatalf("request %d carries a bias block", i)
			}
		}
		if want := float64(i) / 100; math.Abs(r.due.Seconds()-want) > 1e-6 {
			t.Fatalf("request %d due at %v, want %v s", i, r.due, want)
		}
	}
	// Whole cycles: every utterance three times on each route, whatever the seed.
	for k, n := range perKey {
		if n != 3 {
			t.Fatalf("input %d sent %d times in 3 cycles", k, n)
		}
	}
	if biased != 96 {
		t.Errorf("384 requests: %d biased, want 96", biased)
	}
	if short := makeSchedule(rand.New(rand.NewSource(7)), 130, 0, 64, biasTenants); len(short) != 130 {
		t.Errorf("asked for 130 requests, got %d", len(short))
	}
	ta := makeTenants(rand.New(rand.NewSource(7)), 3, [][]string{{"a", "b"}, {"c"}})
	tb := makeTenants(rand.New(rand.NewSource(7)), 3, [][]string{{"a", "b"}, {"c"}})
	if !reflect.DeepEqual(ta, tb) {
		t.Error("same seed, different tenants")
	}
}

func TestRequestBodies(t *testing.T) {
	frames := make([][]float32, 60)
	for i := range frames {
		frames[i] = []float32{float32(i), 0.5}
	}
	e, err := encodeUtt(frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.chunks) != 3 { // 25 + 25 + 10
		t.Fatalf("%d chunks, want 3", len(e.chunks))
	}
	bias := []byte(`{"tenant":"t","phrases":["x y"]}`)
	var rec struct {
		Utterances []wireUtterance `json:"utterances"`
		Bias       *wireBias       `json:"bias"`
	}
	if err := json.Unmarshal(e.body(false, bias), &rec); err != nil {
		t.Fatalf("biased recognize body: %v", err)
	}
	if rec.Bias == nil || rec.Bias.Tenant != "t" || len(rec.Utterances[0].Frames) != 60 {
		t.Errorf("biased recognize body lost something: %+v", rec.Bias)
	}
	lines := strings.Split(strings.TrimSpace(string(e.body(true, bias))), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d stream lines, want 3", len(lines))
	}
	total := 0
	for i, line := range lines {
		var chunk struct {
			Frames [][]float32 `json:"frames"`
			Bias   *wireBias   `json:"bias"`
		}
		if err := json.Unmarshal([]byte(line), &chunk); err != nil {
			t.Fatalf("stream line %d: %v", i, err)
		}
		if (chunk.Bias != nil) != (i == 0) {
			t.Errorf("line %d: bias block present = %v", i, chunk.Bias != nil)
		}
		total += len(chunk.Frames)
	}
	if total != 60 {
		t.Errorf("stream lines carry %d frames, want 60", total)
	}
}

// Self time is a span's duration minus what its children cover;
// span_sum_ratio is children over parent.
func TestSpanArithmetic(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Op: 0, Name: spanOp, Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 0, Name: spanScore, Start: 10, End: 30},
		{ID: 2, Parent: 0, Op: 0, Name: spanDecode, Start: 30, End: 90},
		{ID: 3, Parent: 2, Op: 0, Name: "inner", Start: 40, End: 50},
		// A second operation whose children overlap and overrun the parent.
		{ID: 4, Parent: -1, Op: 1, Name: spanOp, Start: 200, End: 300},
		{ID: 5, Parent: 4, Op: 1, Name: spanScore, Start: 190, End: 250},
		{ID: 6, Parent: 4, Op: 1, Name: spanDecode, Start: 240, End: 320},
	}
	totals, cover := selfTimes(spans)
	if got := totals[spanOp]; got.count != 2 || got.total != 200 || got.self != 20 {
		t.Errorf("bench.op totals %+v, want count 2, total 200, self 20", *got)
	}
	if got := totals[spanDecode]; got.total != 140 || got.self != 130 {
		t.Errorf("decoder.decode totals %+v, want total 140, self 130", *got)
	}
	if cover[0] != 80 || cover[4] != 100 {
		t.Errorf("covered %d and %d, want 80 and 100", cover[0], cover[4])
	}
	if got := spanSumRatio(spans, spanOp); !near(got, 0.9) {
		t.Errorf("span_sum_ratio = %v, want 0.9", got)
	}
}

func TestTracer(t *testing.T) {
	var off *tracer
	off.call("x", -1, 0, func() {})
	if id := off.begin("x", -1, 0); id != -1 || off.snapshot() != nil {
		t.Error("nil tracer recorded something")
	}
	tr := newTracer()
	op := tr.begin(spanOp, -1, 3)
	tr.call(spanScore, op, 3, func() {})
	open := tr.begin("unfinished", op, 3)
	tr.end(op)
	got := tr.snapshot()
	if len(got) != 2 || got[0].Name != spanOp || got[1].Parent != op || got[1].Op != 3 {
		t.Errorf("snapshot %+v; want the op and its finished child (span %d is still open)", got, open)
	}
}

func TestParseProm(t *testing.T) {
	page := `# HELP unfold_server_requests_total HTTP requests by route.
# TYPE unfold_server_requests_total counter
unfold_server_requests_total{route="/v1/recognize"} 12
unfold_server_requests_total{route="/v1/stream"} 30

unfold_server_request_seconds_bucket{route="/v1/stream",outcome="ok",le="+Inf"} 30
unfold_server_request_seconds_sum{route="/v1/stream",outcome="ok"} 0.285
unfold_weird{label="a \"quoted\" \\ value, with } and ="} 1.5e3
unfold_process_uptime_seconds 3.25
unfold_nan NaN
`
	p, err := parseProm(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 7 {
		t.Fatalf("%d samples, want 7", len(p))
	}
	if got := p.sum("unfold_server_requests_total"); got != 42 {
		t.Errorf("sum over routes = %v, want 42", got)
	}
	if got := p.sum("unfold_server_requests_total", "route", "/v1/stream"); got != 30 {
		t.Errorf("one route = %v, want 30", got)
	}
	if got := p.sum("unfold_server_request_seconds_sum", "route", "/v1/stream", "outcome", "ok"); !near(got, 0.285) {
		t.Errorf("histogram sum = %v", got)
	}
	if got := p.sum("unfold_process_uptime_seconds"); got != 3.25 {
		t.Errorf("unlabeled = %v", got)
	}
	if got := p[4].labels["label"]; got != `a "quoted" \ value, with } and =` || p[4].value != 1500 {
		t.Errorf("escaped label %q value %v", got, p[4].value)
	}
	if got := p.sum("unfold_absent"); got != 0 {
		t.Errorf("absent family = %v", got)
	}
	for _, bad := range []string{`name{a="b" 1`, `name{a=b} 1`, `name`, `name{} x`} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "frames_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, verdictWithin},
		{"slower within bound", lower, steady, scale(steady, 1.08), verdictWithin},
		{"slower beyond bound", lower, steady, scale(steady, 1.12), verdictWorse},
		{"faster beyond spread", lower, steady, scale(steady, 0.9), verdictBetter},
		{"throughput down", higher, steady, scale(steady, 0.85), verdictWorse},
		{"throughput up", higher, steady, scale(steady, 1.2), verdictBetter},
		{"noisy parent", lower, []float64{60, 80, 100, 120, 140, 70, 90, 110, 130, 100}, scale(steady, 1.5), verdictUnresolved},
	} {
		if got, _, _, _, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// -compare takes no numbers from a run that failed its gate or was flagged
// invalid.
func TestCompareRefusesIncorrectRun(t *testing.T) {
	run := func(correct bool) runRecord {
		r := runRecord{Workload: searchWide, Correct: correct, Metrics: map[string]metricValue{}}
		for _, d := range endToEndDefs {
			r.Metrics[d.Name] = metricValue{1, d.Unit}
		}
		if !correct {
			r.Failures = []string{"open loop invalid"}
		}
		return r
	}
	good, bad := filepath.Join(t.TempDir(), "good.json"), filepath.Join(t.TempDir(), "bad.json")
	if err := appendResults(good, []runRecord{run(true), run(true)}); err != nil {
		t.Fatal(err)
	}
	if err := appendResults(bad, []runRecord{run(true), run(false)}); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(io.Discard, good, bad); err == nil || !strings.Contains(err.Error(), "open loop invalid") {
		t.Errorf("comparing against an incorrect run: error %v, want a refusal naming the failure", err)
	}
	if _, err := compareFiles(io.Discard, good, good); err != nil {
		t.Errorf("comparing correct runs: %v", err)
	}
}

// The correctness gate: a transcript that differs from the reference pass
// fails the operation and the run.
func TestGateCatchesPerturbedTranscript(t *testing.T) {
	r := &run{res: &runResult{}, refs: [][]int32{{3, 1, 4}, {1, 5}}}
	if !r.checkWords("test", 0, []int32{3, 1, 4}) || len(r.res.failures) != 0 {
		t.Fatal("identical transcript rejected")
	}
	for _, bad := range [][]int32{{3, 1, 5}, {3, 1}, {3, 1, 4, 1}, nil} {
		r.res.failures = nil
		if r.checkWords("test", 0, bad) || len(r.res.failures) != 1 {
			t.Errorf("perturbed transcript %v passed the gate", bad)
		}
	}
}
