package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	unfold "repro"
	"repro/internal/acoustic"
	"repro/internal/decoder"
	"repro/internal/task"
)

var (
	fixOnce sync.Once
	fixSys  *unfold.System
)

// getSystem builds one small recognizer shared by every test in the
// package (construction compresses both graphs, so it is the slow part).
func getSystem(t testing.TB) *unfold.System {
	t.Helper()
	fixOnce.Do(func() {
		sys, err := unfold.NewSystem(task.Spec{
			Name:           "server-test",
			Vocab:          30,
			Phones:         12,
			TrainSentences: 250,
			TestUtterances: 4,
			LMMinCount:     2,
			Seed:           42,
		})
		if err != nil {
			panic(err)
		}
		fixSys = sys
	})
	return fixSys
}

// newLoadedServer builds a ready server over the shared fixture.
func newLoadedServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	if err := s.Load(getSystem(t)); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHealthzLifecycle walks the probe through its three states: loading
// (no model), ok, draining.
func TestHealthzLifecycle(t *testing.T) {
	s := New(Config{})
	get := func() (int, healthResponse) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var h healthResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatalf("healthz body not JSON: %v", err)
		}
		return rec.Code, h
	}

	code, h := get()
	if code != http.StatusServiceUnavailable || h.Status != "loading" {
		t.Errorf("unloaded: got %d %q, want 503 loading", code, h.Status)
	}

	if err := s.Load(getSystem(t)); err != nil {
		t.Fatal(err)
	}
	code, h = get()
	if code != http.StatusOK || h.Status != "ok" {
		t.Errorf("loaded: got %d %q, want 200 ok", code, h.Status)
	}
	if h.Task != "server-test" || h.Workers.Total <= 0 {
		t.Errorf("health body missing model info: %+v", h)
	}

	s.BeginDrain()
	code, h = get()
	if code != http.StatusServiceUnavailable || h.Status != "draining" || !h.Draining {
		t.Errorf("draining: got %d %q, want 503 draining", code, h.Status)
	}
}

// TestRecognizeBatch posts the whole test set and checks the transcripts
// against the sequential reference path, then checks that the decode left
// its trace in /metrics.
func TestRecognizeBatch(t *testing.T) {
	s := newLoadedServer(t, Config{Workers: 2})
	sys := getSystem(t)

	var req recognizeRequest
	for _, u := range sys.TestSet() {
		req.Utterances = append(req.Utterances, utteranceRequest{Frames: u.Frames})
	}
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/recognize", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("recognize: %d %s", rec.Code, rec.Body.String())
	}
	var resp recognizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(sys.TestSet()) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(sys.TestSet()))
	}
	for i, u := range sys.TestSet() {
		want, err := sys.Recognize(u.Frames)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Results[i].Words; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("utt %d: server words %v != sequential %v", i, got, want)
		}
		if resp.Results[i].Error != "" {
			t.Errorf("utt %d: unexpected error %q", i, resp.Results[i].Error)
		}
		if resp.Results[i].Text == "" {
			t.Errorf("utt %d: empty text", i)
		}
	}
	if resp.Throughput.FramesPerSec <= 0 {
		t.Errorf("throughput not populated: %+v", resp.Throughput)
	}

	// The batch must be visible on the metrics endpoint.
	mrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		`unfold_server_request_seconds_count{route="/v1/recognize",outcome="ok"} 1`,
		"unfold_decoder_decodes_total 4",
		"unfold_decoder_frames_total",
		`unfold_server_requests_total{route="/v1/recognize"} 1`,
	} {
		if !strings.Contains(mrec.Body.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRecognizeRejects pins the error paths: wrong method, bad JSON, empty
// batch, and a feature-dimension mismatch.
func TestRecognizeRejects(t *testing.T) {
	s := newLoadedServer(t, Config{Workers: 1})
	cases := []struct {
		name   string
		method string
		body   string
		want   int
	}{
		{"method", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"badjson", http.MethodPost, "{", http.StatusBadRequest},
		{"empty", http.MethodPost, `{"utterances":[]}`, http.StatusBadRequest},
		{"emptyutt", http.MethodPost, `{"utterances":[{"frames":[]}]}`, http.StatusBadRequest},
		{"dim", http.MethodPost, `{"utterances":[{"frames":[[1,2]]}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(tc.method, "/v1/recognize", strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("%s: got %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
		var e map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body not JSON: %s", tc.name, rec.Body.String())
		}
	}
}

// TestStreamLive drives a chunked NDJSON stream over a real HTTP server and
// checks the tentpole acceptance criterion end to end: partial hypotheses
// arrive while the client is still sending, /metrics shows live decoder
// counters mid-stream, and the final transcript matches the batch path.
func TestStreamLive(t *testing.T) {
	s := newLoadedServer(t, Config{Workers: 1})
	sys := getSystem(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Stream the whole test set as one long utterance: long enough that
	// LM back-off traffic shows up in the mid-stream metrics check.
	var frames [][]float32
	for _, u := range sys.TestSet() {
		frames = append(frames, u.Frames...)
	}
	want, err := sys.Recognize(frames)
	if err != nil {
		t.Fatal(err)
	}

	pr, pw := io.Pipe()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream", pr)
	enc := json.NewEncoder(pw)

	// Send the first half before the request even completes: the server
	// reads the body incrementally.
	half := len(frames) / 2
	go enc.Encode(streamChunk{Frames: frames[:half]})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)

	readUpdate := func() streamUpdate {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var up streamUpdate
		if err := json.Unmarshal(sc.Bytes(), &up); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		return up
	}

	up := readUpdate()
	if up.Final || up.Frames != half {
		t.Errorf("first update: final=%v frames=%d, want partial at %d", up.Final, up.Frames, half)
	}

	// Mid-stream the utterance is in flight: the live gauge must show it,
	// and the decoder counters published per-Push must already be nonzero.
	mres, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mres.Body)
	mres.Body.Close()
	metricsOut := string(mbody)
	if !strings.Contains(metricsOut, "unfold_server_streams_active 1") {
		t.Errorf("mid-stream metrics missing live stream gauge")
	}
	for _, name := range []string{
		"unfold_decoder_frames_total", "unfold_decoder_lm_fetches_total",
		"unfold_decoder_backoff_hops_total", "unfold_decoder_frontier_tokens_count",
	} {
		if v := metricValue(metricsOut, name); v <= 0 {
			t.Errorf("mid-stream metric %s = %g, want > 0", name, v)
		}
	}

	// Second half, then EOF to finalize.
	if err := enc.Encode(streamChunk{Frames: frames[half:]}); err != nil {
		t.Fatal(err)
	}
	up = readUpdate()
	if up.Final || up.Frames != len(frames) {
		t.Errorf("second update: final=%v frames=%d, want partial at %d", up.Final, up.Frames, len(frames))
	}
	pw.Close()

	fin := readUpdate()
	if !fin.Final {
		t.Fatalf("expected final line, got %+v", fin)
	}
	if fmt.Sprint(fin.Words) != fmt.Sprint(want) {
		t.Errorf("stream words %v != batch %v", fin.Words, want)
	}
	if fin.Frames != len(frames) || fin.Cost == 0 {
		t.Errorf("final line incomplete: %+v", fin)
	}

	// After the stream ends the gauge must settle back to zero. The final
	// line reaches the client before the handler returns and drops the
	// gauge, so give the handler a moment to get there.
	for deadline := time.Now().Add(2 * time.Second); s.streamsGauge.Value() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if v := s.streamsGauge.Value(); v != 0 {
		t.Errorf("streams gauge after finish = %g, want 0", v)
	}
	if s.streamsAborted.Value() != 0 {
		t.Errorf("clean stream counted as aborted")
	}
}

// metricValue extracts an unlabeled sample value from exposition text.
func metricValue(out, name string) float64 {
	for _, line := range strings.Split(out, "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %g", &v); err == nil {
			return v
		}
	}
	return -1
}

// streamFinal posts frames to url's /v1/stream in chunks of k frames, one
// NDJSON line each, and returns the final update.
func streamFinal(t *testing.T, url string, frames [][]float32, k int) streamUpdate {
	t.Helper()
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for off := 0; off < len(frames); off += k {
		enc.Encode(streamChunk{Frames: frames[off:min(off+k, len(frames))]})
	}
	resp, err := http.Post(url+"/v1/stream", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: %d %s", resp.StatusCode, b)
	}
	var last streamUpdate
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if !last.Final || last.Error != "" {
		t.Fatalf("stream did not finish cleanly: %+v", last)
	}
	return last
}

// TestStreamRNNMatchesRecognize holds /v1/stream to /v1/recognize on a
// model whose scorer is recurrent: streamed in 1-, 4- and 25-frame chunks,
// every utterance must come back with the batch route's words, frame count
// and cost bits. The stream scores each chunk as it arrives, so this holds
// only if the scorer's hidden state and smoother carry across chunk
// boundaries. (Word ends are not on the wire; the decoder-level
// TestDifferentialPipelineScorers holds them on the same scoring loop.)
func TestStreamRNNMatchesRecognize(t *testing.T) {
	sys, err := unfold.NewSystem(task.Spec{
		Name:           "server-rnn",
		Vocab:          30,
		Phones:         12,
		TrainSentences: 250,
		TestUtterances: 3,
		LMMinCount:     2,
		Seed:           43,
		Scorer:         task.ScorerRNN,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1})
	if err := s.Load(sys); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var req recognizeRequest
	for _, u := range sys.TestSet() {
		req.Utterances = append(req.Utterances, utteranceRequest{Frames: u.Frames})
	}
	rec := postRecognize(t, s, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("recognize: %d %s", rec.Code, rec.Body.String())
	}
	var batch recognizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 4, 25} {
		for i, u := range sys.TestSet() {
			want := batch.Results[i]
			got := streamFinal(t, ts.URL, u.Frames, k)
			if fmt.Sprint(got.Words) != fmt.Sprint(want.Words) || got.Frames != want.Frames || got.Cost != want.Cost {
				t.Errorf("%d-frame chunks, utt %d: stream %v (%d frames) cost %v, recognize %v (%d frames) cost %v",
					k, i, got.Words, got.Frames, got.Cost, want.Words, want.Frames, want.Cost)
			}
		}
	}
}

// TestStreamRescuesLikeRecognize: with search-failure rescue on and one
// unsearchable frame per utterance (features at the float32 limit, where
// every senone scores -Inf), /v1/stream widens and then skips the frame as
// /v1/recognize does, whatever the chunking: the same words, cost bits,
// frame count, rescues and search failures.
func TestStreamRescuesLikeRecognize(t *testing.T) {
	sys := getSystem(t)
	s := newLoadedServer(t, Config{Workers: 1, Decoder: decoder.Config{RescueWidenings: 2}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var req recognizeRequest
	for _, u := range sys.TestSet() {
		frames := append([][]float32(nil), u.Frames...)
		bad := make([]float32, len(frames[0]))
		for j := range bad {
			bad[j] = math.MaxFloat32
		}
		frames[len(frames)/2] = bad
		req.Utterances = append(req.Utterances, utteranceRequest{Frames: frames})
	}
	rec := postRecognize(t, s, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("recognize: %d %s", rec.Code, rec.Body.String())
	}
	var batch recognizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 7} {
		for i, u := range req.Utterances {
			want := batch.Results[i]
			if want.Rescues != 2 || want.SearchFailures != 1 {
				t.Fatalf("utt %d: recognize rescues %d, failures %d; want the poisoned frame widened twice and skipped",
					i, want.Rescues, want.SearchFailures)
			}
			got := streamFinal(t, ts.URL, u.Frames, k)
			if fmt.Sprint(got.Words) != fmt.Sprint(want.Words) || got.Cost != want.Cost || got.Frames != want.Frames ||
				got.Rescues != want.Rescues || got.SearchFailures != want.SearchFailures {
				t.Errorf("%d-frame chunks, utt %d: stream %v cost %v (%d frames, %d rescues, %d failures), recognize %v cost %v (%d, %d, %d)",
					k, i, got.Words, got.Cost, got.Frames, got.Rescues, got.SearchFailures,
					want.Words, want.Cost, want.Frames, want.Rescues, want.SearchFailures)
			}
		}
	}
}

// TestStreamCancelMidUtterance disconnects a client halfway through an
// utterance and checks the server aborts the stream: the aborted counter
// increments and the live gauge returns to zero.
func TestStreamCancelMidUtterance(t *testing.T) {
	s := newLoadedServer(t, Config{Workers: 1})
	sys := getSystem(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	u := sys.TestSet()[0]
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/stream", pr)

	go json.NewEncoder(pw).Encode(streamChunk{Frames: u.Frames[:len(u.Frames)/2]})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no partial before cancel: %v", sc.Err())
	}

	// Client walks away mid-utterance: cancel the request with the body
	// pipe still open, so the server sees a broken read, not a clean EOF.
	cancel()
	resp.Body.Close()
	defer pw.Close()

	deadline := time.Now().Add(5 * time.Second)
	for s.streamsAborted.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.streamsAborted.Value(); got != 1 {
		t.Fatalf("aborted counter = %d, want 1", got)
	}
	for s.streamsGauge.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if v := s.streamsGauge.Value(); v != 0 {
		t.Errorf("streams gauge after abort = %g, want 0", v)
	}
}

// TestTestsetEndpoint checks the demo-data endpoint: listing, fetching one
// utterance with frames, and range validation.
func TestTestsetEndpoint(t *testing.T) {
	s := newLoadedServer(t, Config{Workers: 1})
	sys := getSystem(t)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/testset", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("list: %d", rec.Code)
	}
	var list struct {
		Count      int           `json:"count"`
		Utterances []testsetItem `json:"utterances"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != len(sys.TestSet()) || len(list.Utterances) != list.Count {
		t.Errorf("list count %d, want %d", list.Count, len(sys.TestSet()))
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/testset?utt=0", nil))
	var item testsetItem
	if err := json.Unmarshal(rec.Body.Bytes(), &item); err != nil {
		t.Fatal(err)
	}
	if len(item.Data) != len(sys.TestSet()[0].Frames) || item.Ref == "" {
		t.Errorf("item missing frames or ref: frames=%d ref=%q", len(item.Data), item.Ref)
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/testset?utt=99", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("out-of-range utt: %d, want 400", rec.Code)
	}
}

// TestDebugEndpoints checks the pprof and span-ring wiring, including the
// DisablePprof switch.
func TestDebugEndpoints(t *testing.T) {
	s := newLoadedServer(t, Config{Workers: 1})

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof index: %d", rec.Code)
	}

	// A decode leaves a span in the ring.
	sys := getSystem(t)
	body, _ := json.Marshal(recognizeRequest{Utterances: []utteranceRequest{{Frames: sys.TestSet()[0].Frames}}})
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/recognize", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("recognize: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/spans", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"decode"`) {
		t.Errorf("spans endpoint missing decode span: %d %s", rec.Code, rec.Body.String())
	}

	noPprof := New(Config{DisablePprof: true})
	rec = httptest.NewRecorder()
	noPprof.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("disabled pprof: %d, want 404", rec.Code)
	}
}

// rendezvousScorer blocks every ScoreUtterance call until `want` calls are
// inside it at once, then scores through the wrapped scorer. A server that
// serialises a model's scoring never gets the second call in, and the
// rendezvous times out.
type rendezvousScorer struct {
	acoustic.Scorer
	want    int
	mu      sync.Mutex
	inside  int
	all     chan struct{} // closed when `want` calls are inside
	timeout time.Duration
	missed  atomic.Int32
}

func (r *rendezvousScorer) ScoreUtterance(frames [][]float32) [][]float32 {
	r.mu.Lock()
	r.inside++
	if r.inside == r.want {
		close(r.all)
	}
	r.mu.Unlock()
	select {
	case <-r.all:
	case <-time.After(r.timeout):
		r.missed.Add(1)
	}
	return r.Scorer.ScoreUtterance(frames)
}

// TestRecognizeScoresConcurrently: two simultaneous /v1/recognize requests
// on one model overlap their acoustic scoring — each is held inside the
// scorer until the other has entered it — and still return the sequential
// path's transcripts.
func TestRecognizeScoresConcurrently(t *testing.T) {
	base := getSystem(t)
	sc := &rendezvousScorer{Scorer: base.Scorer, want: 2, all: make(chan struct{}), timeout: 10 * time.Second}
	base.Scorer = sc
	t.Cleanup(func() { base.Scorer = sc.Scorer })
	s := New(Config{Workers: 2})
	if err := s.Load(base); err != nil {
		t.Fatal(err)
	}

	utts := base.TestSet()[:2]
	dec, err := base.NewDecoder(s.cfg.Decoder)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, u := range utts {
		i, u := i, u
		want := dec.Decode(base.Task.Scorer.ScoreUtterance(u.Frames)).Words
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(recognizeRequest{Utterances: []utteranceRequest{{Frames: u.Frames}}})
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/recognize", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Errorf("request %d: %d %s", i, rec.Code, rec.Body.String())
				return
			}
			var resp recognizeResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != 1 {
				t.Errorf("request %d: bad response %q: %v", i, rec.Body.String(), err)
				return
			}
			if got := resp.Results[0].Words; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("request %d: words %v != sequential %v", i, got, want)
			}
		}()
	}
	wg.Wait()
	sc.mu.Lock()
	inside := sc.inside
	sc.mu.Unlock()
	if inside != 2 {
		t.Fatalf("the rendezvous scorer took %d scoring calls, want 2: the requests did not score through it", inside)
	}
	if n := sc.missed.Load(); n != 0 {
		t.Fatalf("%d of 2 scoring calls never overlapped the other: scoring is serialised per model", n)
	}
}
