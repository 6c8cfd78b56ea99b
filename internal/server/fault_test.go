package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/acoustic"
)

// streamRecords posts frames to url's /v1/stream as one NDJSON chunk for
// model and returns the status and every record read back.
func streamRecords(t *testing.T, url, model string, frames [][]float32) (int, []streamUpdate) {
	t.Helper()
	resp, err := http.Post(url+"/v1/stream", "application/x-ndjson", strings.NewReader(chunkLine(frames, model)))
	if err != nil {
		t.Fatalf("stream to %q: %v", model, err)
	}
	defer resp.Body.Close()
	var out []streamUpdate
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var u streamUpdate
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, u)
	}
	return resp.StatusCode, out
}

// checkFaultFinal asserts a stream ended with one structured fault final.
func checkFaultFinal(t *testing.T, what string, code int, recs []streamUpdate) {
	t.Helper()
	if code != http.StatusOK || len(recs) == 0 {
		t.Fatalf("%s: status %d, %d records: the stream was cut without a final", what, code, len(recs))
	}
	last := recs[len(recs)-1]
	if !last.Final || last.Reason != "fault" || !strings.Contains(last.Error, "recovered panic") || len(last.Words) != 0 {
		t.Fatalf("%s: final %+v, want a fault final carrying the recovered panic", what, last)
	}
}

// TestStreamSurvivesTruncatedMapping: a v3 victim is hot-added mapped, then
// its file is truncated to 4 KiB under it, so every read of its graphs past
// the new end raises SIGBUS. Each /v1/stream request to it must end with a
// structured fault final — not with the process — and QuarantineThreshold
// of them quarantine the victim, while the default model keeps answering
// /v1/recognize and /v1/stream. Without the session's guard the first
// stream kills the test binary with "fatal error: fault".
func TestStreamSurvivesTruncatedMapping(t *testing.T) {
	sup := chaosSupervisor()
	sup.QuarantineThreshold = 3
	s := newLoadedServer(t, Config{Workers: 1, Supervisor: sup})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	path := saveBundle(t)
	if code, body := postModel(t, s, "victim", path); code != http.StatusOK {
		t.Fatalf("add victim: %d %v", code, body)
	}
	if mi, _ := findModel(s, "victim"); !mi.Mapped {
		t.Skip("mmap unavailable on this platform")
	}
	frames := getSystem(t).TestSet()[0].Frames
	if err := os.Truncate(path, 4<<10); err != nil {
		t.Fatal(err)
	}

	for i := 1; i <= sup.QuarantineThreshold; i++ {
		code, recs := streamRecords(t, ts.URL, "victim", frames)
		checkFaultFinal(t, "victim stream", code, recs)
		mi, _ := findModel(s, "victim")
		if i < sup.QuarantineThreshold && (mi.State != modelReady || mi.ConsecutiveFailures != i) {
			t.Fatalf("after %d faulted streams: %+v, want ready with %d consecutive failures", i, mi, i)
		}
	}
	if mi, _ := findModel(s, "victim"); mi.State == modelReady || mi.Quarantines != 1 {
		t.Fatalf("after %d faulted streams the victim is %+v, want quarantined once", sup.QuarantineThreshold, mi)
	}
	if code, _ := streamRecords(t, ts.URL, "victim", frames); code != http.StatusServiceUnavailable {
		t.Errorf("quarantined victim's stream: %d, want 503", code)
	}
	if n := errorCounter(s, "fault"); n != int64(sup.QuarantineThreshold) {
		t.Errorf("errors_total{reason=fault} = %d, want %d", n, sup.QuarantineThreshold)
	}
	if n := outcomeCount(s, "/v1/stream", "error"); n != int64(sup.QuarantineThreshold) {
		t.Errorf("stream outcome=error count %d, want %d", n, sup.QuarantineThreshold)
	}

	// The default model never noticed.
	if code, body := recognizeOn(t, s, "", frames); code != http.StatusOK || bytes.Contains(body, []byte(`"error"`)) {
		t.Errorf("default /v1/recognize next to a faulting victim: %d %s", code, body)
	}
	streamFinal(t, ts.URL, frames, 7)
}

// faultScorer panics on every scoring call.
type faultScorer struct{ acoustic.Scorer }

func (faultScorer) ScoreUtterance([][]float32) [][]float32 { panic("scorer fault") }

// TestStreamPanicIsStructured: a scorer that panics fails a /v1/stream
// request with a structured fault final and counts against its model, as
// the same panic on /v1/recognize does, and the interrupted decoder is not
// put back on the model's free list. Without the session's guard net/http
// cuts the connection and the failure score does not move.
func TestStreamPanicIsStructured(t *testing.T) {
	sys := getSystem(t)
	healthy := sys.Scorer
	sys.Scorer = faultScorer{healthy}
	t.Cleanup(func() { sys.Scorer = healthy })
	sup := chaosSupervisor()
	sup.QuarantineThreshold = 10
	s := New(Config{Workers: 1, Supervisor: sup})
	defer s.Close()
	if err := s.Load(sys); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	frames := sys.TestSet()[0].Frames

	code, recs := streamRecords(t, ts.URL, "", frames)
	checkFaultFinal(t, "panicking stream", code, recs)
	if mi, _ := findModel(s, DefaultModel); mi.ConsecutiveFailures != 1 {
		t.Fatalf("failure score after a panicking stream: %+v, want 1", mi)
	}
	m, release, _, _ := s.models.acquire(DefaultModel)
	m.decMu.Lock()
	idle := len(m.decs)
	m.decMu.Unlock()
	release()
	if idle != 0 {
		t.Errorf("the free list holds %d decoders after the faulted stream, want 0: the interrupted one went back", idle)
	}

	code, body := recognizeOn(t, s, "", frames)
	var resp recognizeResponse
	if code != http.StatusOK || json.Unmarshal(body, &resp) != nil || len(resp.Results) != 1 ||
		!strings.Contains(resp.Results[0].Error, "recovered panic: scorer fault") {
		t.Fatalf("panicking /v1/recognize: %d %s, want 200 with the utterance's fault", code, body)
	}
	waitFor(t, time.Second, "the batch failure to count", func() bool {
		mi, _ := findModel(s, DefaultModel)
		return mi.ConsecutiveFailures == 2
	})
}
