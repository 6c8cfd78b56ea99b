package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestAdmissionDefaults pins the zero-value policy: every knob gets a
// serving-friendly default and the watermarks stay ordered.
func TestAdmissionDefaults(t *testing.T) {
	c := AdmissionConfig{}.withDefaults(3)
	if c.MaxConcurrent != 3 {
		t.Errorf("MaxConcurrent = %d, want pool size 3", c.MaxConcurrent)
	}
	if c.MaxQueue != 16 || c.MaxStreams != 32 || c.DegradeLevels != 2 {
		t.Errorf("defaults off: %+v", c)
	}
	if c.DegradeLow >= c.DegradeHigh {
		t.Errorf("watermarks unordered: low %d high %d", c.DegradeLow, c.DegradeHigh)
	}
	// Degenerate explicit watermarks are repaired, not obeyed.
	c = AdmissionConfig{DegradeLow: 5, DegradeHigh: 5}.withDefaults(1)
	if c.DegradeHigh <= c.DegradeLow {
		t.Errorf("equal watermarks not repaired: %+v", c)
	}
}

// TestDegradeLevelMapping tables the pressure controller: depth below the
// low watermark is full quality, above the high one is the deepest level,
// in between it interpolates rounding up (pressure errs toward shedding
// work early, not late).
func TestDegradeLevelMapping(t *testing.T) {
	a := newAdmitter(AdmissionConfig{MaxQueue: 16, DegradeLow: 4, DegradeHigh: 12, DegradeLevels: 4}.withDefaults(2))
	cases := []struct{ depth, want int }{
		{0, 0}, {4, 0},
		{5, 1}, {6, 1},
		{8, 2},
		{11, 4}, // (11-4)*4/8 = 3.5, rounds up
		{12, 4}, {16, 4},
	}
	for _, tc := range cases {
		if got := a.levelAt(tc.depth); got != tc.want {
			t.Errorf("levelAt(%d) = %d, want %d", tc.depth, got, tc.want)
		}
	}
	// Disabled ladder: always full quality.
	off := newAdmitter(AdmissionConfig{DegradeLevels: -1}.withDefaults(2))
	if got := off.levelAt(1000); got != 0 {
		t.Errorf("disabled ladder level = %d, want 0", got)
	}
}

// TestAdmitterQueueAndShed drives the gate directly: slots fill, the queue
// absorbs exactly MaxQueue waiters, the next request sheds, and releases
// hand slots to waiters.
func TestAdmitterQueueAndShed(t *testing.T) {
	a := newAdmitter(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 2}.withDefaults(1))

	release, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Two waiters fit in the queue.
	type got struct {
		release func()
		err     error
	}
	results := make(chan got, 2)
	for i := 0; i < 2; i++ {
		go func() {
			r, err := a.acquire(context.Background())
			results <- got{r, err}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for a.depth() != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := a.depth(); d != 2 {
		t.Fatalf("queue depth = %d, want 2", d)
	}

	// The third waiter is shed immediately, without blocking.
	if _, err := a.acquire(context.Background()); err != errShed {
		t.Fatalf("over-queue acquire err = %v, want errShed", err)
	}

	// A waiter with an expiring context leaves the queue with its error.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	// The queue is full, so this one sheds too — drain one waiter first.
	release()
	first := <-results
	if first.err != nil {
		t.Fatalf("queued waiter failed: %v", first.err)
	}
	if _, err := a.acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("expired waiter err = %v, want DeadlineExceeded", err)
	}

	// Unwind: release the held slot, the remaining waiter gets it.
	first.release()
	second := <-results
	if second.err != nil {
		t.Fatalf("second waiter failed: %v", second.err)
	}
	second.release()
	if d := a.depth(); d != 0 {
		t.Errorf("queue depth after drain = %d, want 0", d)
	}
}

// TestParseTimeout tables the deadline resolution: body field beats header,
// clamping, defaults, and rejection of garbage.
func TestParseTimeout(t *testing.T) {
	a := newAdmitter(AdmissionConfig{DefaultTimeout: 5 * time.Second, MaxTimeout: time.Minute}.withDefaults(1))
	cases := []struct {
		name    string
		field   string
		header  string
		want    time.Duration
		wantErr bool
	}{
		{"default", "", "", 5 * time.Second, false},
		{"field", "2s", "", 2 * time.Second, false},
		{"header", "", "750ms", 750 * time.Millisecond, false},
		{"field_beats_header", "2s", "9s", 2 * time.Second, false},
		{"clamped", "10m", "", time.Minute, false},
		{"garbage", "soon", "", 0, true},
		{"negative", "-1s", "", 0, true},
		{"zero", "0s", "", 0, true},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodPost, "/v1/recognize", nil)
		if tc.header != "" {
			r.Header.Set(timeoutHeader, tc.header)
		}
		d, err := a.parseTimeout(r, tc.field)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr %v", tc.name, err, tc.wantErr)
			continue
		}
		if !tc.wantErr && d != tc.want {
			t.Errorf("%s: timeout = %v, want %v", tc.name, d, tc.want)
		}
	}
}

// errorCounter reads unfold_server_errors_total{reason}: registration is
// get-or-create, so re-registering hands back the live counter.
func errorCounter(s *Server, reason string) int64 {
	return s.reg.Counter("unfold_server_errors_total", "", telemetry.L("reason", reason)).Value()
}

// TestRecognizeErrorTable walks every request-validation failure through
// /v1/recognize and asserts all three contract surfaces at once: the status
// code, the structured error body (message plus machine-readable reason),
// and the per-reason telemetry increment.
func TestRecognizeErrorTable(t *testing.T) {
	s := newLoadedServer(t, Config{Workers: 1, Admission: AdmissionConfig{MaxBodyBytes: 2048}})
	big := `{"utterances":[{"frames":[[` + strings.Repeat("1,", 4096) + `1]]}]}`
	cases := []struct {
		name        string
		method      string
		contentType string
		body        string
		wantCode    int
		wantReason  string
	}{
		{"method", http.MethodGet, "", "", http.StatusMethodNotAllowed, "method"},
		{"content_type", http.MethodPost, "text/csv", "{}", http.StatusUnsupportedMediaType, "content_type"},
		{"bad_json", http.MethodPost, "application/json", "{", http.StatusBadRequest, "bad_json"},
		{"truncated_json", http.MethodPost, "", `{"utterances":[{"frames":[[1`, http.StatusBadRequest, "bad_json"},
		{"body_too_large", http.MethodPost, "application/json", big, http.StatusRequestEntityTooLarge, "body_too_large"},
		{"empty_batch", http.MethodPost, "", `{"utterances":[]}`, http.StatusBadRequest, "empty_batch"},
		{"empty_utterance", http.MethodPost, "", `{"utterances":[{"frames":[]}]}`, http.StatusBadRequest, "empty_utterance"},
		{"bad_dims", http.MethodPost, "", `{"utterances":[{"frames":[[1,2]]}]}`, http.StatusBadRequest, "bad_dims"},
		{"bad_timeout", http.MethodPost, "", `{"utterances":[{"frames":[[` + strings.Repeat("1,", 15) + `1]]}],"timeout":"soon"}`, http.StatusBadRequest, "bad_timeout"},
		// Bodies the feature reader hands to encoding/json keep its answers.
		{"null_frames", http.MethodPost, "", `{"utterances":[{"frames":null}]}`, http.StatusBadRequest, "empty_utterance"},
		{"float32_overflow", http.MethodPost, "", `{"utterances":[{"frames":[[1e39]]}]}`, http.StatusBadRequest, "bad_json"},
		{"leading_zero", http.MethodPost, "", `{"utterances":[{"frames":[[01]]}]}`, http.StatusBadRequest, "bad_json"},
		// Decoded, so validation reaches the frames' dimension.
		{"key_case", http.MethodPost, "", `{"Utterances":[{"Frames":[[1,2]]}]}`, http.StatusBadRequest, "bad_dims"},
		{"trailing_bytes", http.MethodPost, "", `{"utterances":[{"frames":[[1,2]]}]} trailing {garbage`, http.StatusBadRequest, "bad_dims"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := errorCounter(s, tc.wantReason)
			req := httptest.NewRequest(tc.method, "/v1/recognize", strings.NewReader(tc.body))
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.wantCode {
				t.Errorf("status = %d, want %d (%s)", rec.Code, tc.wantCode, rec.Body.String())
			}
			var e errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("error body not JSON: %s", rec.Body.String())
			}
			if e.Error == "" || e.Reason != tc.wantReason {
				t.Errorf("error body = %+v, want reason %q and a message", e, tc.wantReason)
			}
			if after := errorCounter(s, tc.wantReason); after != before+1 {
				t.Errorf("errors_total{reason=%q} = %d, want %d", tc.wantReason, after, before+1)
			}
		})
	}

	// bad_dims note: a valid-looking timeout on a bad request must not mask
	// the validation error ordering — validation always precedes admission,
	// so none of the rejects above consumed a slot or queued.
	if d := s.admit.depth(); d != 0 {
		t.Errorf("queue depth after rejects = %d, want 0", d)
	}
}

// TestStreamLineCap checks /v1/stream's per-line byte cap
// (Admission.MaxBodyBytes, counted per NDJSON value): a first line over it
// answers 413 body_too_large; a later one, on the fast path or after a line
// that fell back to encoding/json, ends the stream with a final
// body_too_large record, counted under errors_total. A chunk object split
// across lines is one value and decodes as one.
func TestStreamLineCap(t *testing.T) {
	const limit = 2048
	s := newLoadedServer(t, Config{Workers: 1, Admission: AdmissionConfig{MaxBodyBytes: limit}})
	defer s.Close()
	u := getSystem(t).TestSet()[0]
	line := func(frames [][]float32) string {
		b, _ := json.Marshal(streamChunk{Frames: frames})
		return string(b) + "\n"
	}
	big := line(u.Frames[:20])
	if len(big) <= limit {
		t.Fatalf("over-cap line is only %d bytes", len(big))
	}
	small := line(u.Frames[:2])
	upper := strings.Replace(small, `"frames"`, `"Frames"`, 1)
	// One chunk object broken over lines inside its frames array.
	split := strings.Replace(line(u.Frames[2:4]), "],[", "],\n[", 1)
	if strings.Count(split, "\n") != 2 {
		t.Fatalf("chunk %q was not split", split)
	}

	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/stream", strings.NewReader(body)))
		return rec
	}
	final := func(rec *httptest.ResponseRecorder) streamUpdate {
		t.Helper()
		lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
		var up streamUpdate
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &up); err != nil || !up.Final {
			t.Fatalf("last line %q is not a final record (%v)", lines[len(lines)-1], err)
		}
		return up
	}

	before := errorCounter(s, "body_too_large")
	rec := post(big + small)
	var e errorBody
	if rec.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Reason != "body_too_large" {
		t.Errorf("over-cap first line: %d %s, want 413 body_too_large", rec.Code, rec.Body.String())
	}
	for _, lead := range []string{small, upper} {
		rec = post(lead + big + small)
		if up := final(rec); rec.Code != http.StatusOK || up.Reason != "body_too_large" || up.Error == "" {
			t.Errorf("over-cap later line after %q: final %+v, want reason body_too_large", lead[:12], up)
		}
	}
	if got := errorCounter(s, "body_too_large"); got != before+3 {
		t.Errorf("errors_total{reason=body_too_large} = %d, want %d", got, before+3)
	}

	// Lines under the cap, however many, and a split object: a clean final
	// over every frame.
	rec = post(small + split + strings.Repeat(small, 4))
	if up := final(rec); up.Error != "" || up.Frames != 12 {
		t.Errorf("split chunk stream: final %+v, want 12 frames and no error", up)
	}
}

// TestRecognizeTimeoutDeadline posts a batch with a deadline far too short
// for the decode and checks the request fails as 408 with the deadline
// reason — and that the worker slot comes back (the next full-deadline
// request succeeds).
func TestRecognizeTimeoutDeadline(t *testing.T) {
	s := newLoadedServer(t, Config{Workers: 1})
	sys := getSystem(t)

	post := func(timeout string) *httptest.ResponseRecorder {
		body, _ := json.Marshal(recognizeRequest{
			Utterances: []utteranceRequest{{Frames: sys.TestSet()[0].Frames}},
			Timeout:    timeout,
		})
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/recognize", bytes.NewReader(body)))
		return rec
	}

	rec := post("1ns")
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("1ns deadline: got %d %s, want 408", rec.Code, rec.Body.String())
	}
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Reason != "deadline" {
		t.Errorf("deadline body = %s, want reason=deadline", rec.Body.String())
	}

	if rec = post(""); rec.Code != http.StatusOK {
		t.Errorf("decode after expired request: got %d, want 200 (slot leaked?)", rec.Code)
	}
}

// TestStreamShedsPastCap fills the stream slots and checks the next
// connection is shed with the full 429 contract: Retry-After header,
// structured body, per-route shed counter.
func TestStreamShedsPastCap(t *testing.T) {
	s := newLoadedServer(t, Config{Workers: 1, Admission: AdmissionConfig{MaxStreams: 2}})

	// Occupy both stream slots directly — the handler path is exercised by
	// the release check below and the soak test.
	r1, ok1 := s.admit.acquireStream()
	r2, ok2 := s.admit.acquireStream()
	if !ok1 || !ok2 {
		t.Fatal("could not fill stream slots")
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/stream", strings.NewReader("")))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-cap stream: got %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After header")
	}
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Reason != "overloaded" || e.RetryAfterSeconds <= 0 {
		t.Errorf("shed body = %s, want overloaded with retry hint", rec.Body.String())
	}
	if got := s.shedTotal["/v1/stream"].Value(); got != 1 {
		t.Errorf("shed_total{/v1/stream} = %d, want 1", got)
	}

	// Freeing a slot re-opens the gate.
	r1()
	r2()
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/stream", strings.NewReader("")))
	if rec.Code != http.StatusOK {
		t.Errorf("stream after release: got %d, want 200 empty-stream final", rec.Code)
	}
}
