package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// outcomeCount reads unfold_server_request_seconds{route,outcome}'s count:
// registration is get-or-create, so re-registering hands back the live
// histogram.
func outcomeCount(s *Server, route, outcome string) int64 {
	return s.reg.Histogram("unfold_server_request_seconds", "", requestBuckets,
		telemetry.L("route", route), telemetry.L("outcome", outcome)).Count()
}

// chunkLine is one NDJSON stream line over frames.
func chunkLine(frames [][]float32, model string) string {
	b, _ := json.Marshal(streamChunk{Frames: frames, Model: model})
	return string(b) + "\n"
}

// sickModel registers sys under name and drains it while a reference is
// held, so the model stays listed but not servable: requests naming it get
// 503 model_not_ready. The returned func drops the reference.
func sickModel(t *testing.T, s *Server, name string) func() {
	t.Helper()
	if err := s.LoadSystem(name, getSystem(t)); err != nil {
		t.Fatal(err)
	}
	_, release, st, _ := s.models.acquire(name)
	if st != statusOK {
		t.Fatalf("acquire %q: status %d", name, st)
	}
	if err := s.DrainModel(name); err != nil {
		t.Fatal(err)
	}
	return release
}

// TestStreamErrorTable is TestRecognizeErrorTable for /v1/stream, over a
// real connection so the watchdog's read deadlines apply. Every failure,
// before the 200 header (a JSON error reply) and after it (the stream's
// final record), is checked on the status, the reason, the
// errors_total{reason} increment (a shed counts under shed_total only) and
// the request_seconds outcome label.
func TestStreamErrorTable(t *testing.T) {
	sys := getSystem(t)
	good := chunkLine(sys.TestSet()[0].Frames[:2], "")
	big := chunkLine(sys.TestSet()[0].Frames[:20], "")

	loaded := newLoadedServer(t, Config{Workers: 1,
		Admission: AdmissionConfig{MaxBodyBytes: 2048, MaxStreams: 1},
		Stream:    StreamConfig{Watchdog: 300 * time.Millisecond}})
	defer loaded.Close()
	defer sickModel(t, loaded, "sick")()
	empty, draining := New(Config{}), New(Config{})
	defer empty.Close()
	defer draining.Close()
	draining.BeginDrain()
	noDefault := New(Config{Workers: 1})
	defer noDefault.Close()
	if err := noDefault.LoadSystem("other", sys); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name        string
		s           *Server
		method      string
		contentType string
		timeout     string
		lines       []string
		gap         time.Duration // between lines
		hang        bool          // keep the body open after the lines
		holdSlot    bool          // the one stream slot is taken
		wantCode    int
		wantReason  string
		wantOutcome string
	}{
		{name: "method", s: loaded, method: http.MethodGet, wantCode: 405, wantReason: "method", wantOutcome: "invalid"},
		{name: "content_type", s: loaded, contentType: "text/csv", lines: []string{good}, wantCode: 415, wantReason: "content_type", wantOutcome: "invalid"},
		{name: "draining", s: draining, lines: []string{good}, wantCode: 503, wantReason: "draining", wantOutcome: "unavailable"},
		{name: "not_loaded", s: empty, lines: []string{good}, wantCode: 503, wantReason: "not_loaded", wantOutcome: "unavailable"},
		{name: "bad_timeout", s: loaded, timeout: "soon", lines: []string{good}, wantCode: 400, wantReason: "bad_timeout", wantOutcome: "invalid"},
		{name: "overloaded", s: loaded, holdSlot: true, lines: []string{good}, wantCode: 429, wantReason: "overloaded", wantOutcome: "shed"},
		{name: "stall_first_line", s: loaded, hang: true, wantCode: 408, wantReason: "stall", wantOutcome: "stalled"},
		{name: "body_too_large_first_line", s: loaded, lines: []string{big}, wantCode: 413, wantReason: "body_too_large", wantOutcome: "invalid"},
		{name: "bad_json", s: loaded, lines: []string{"{\n"}, wantCode: 400, wantReason: "bad_json", wantOutcome: "invalid"},
		{name: "unknown_model", s: loaded, lines: []string{chunkLine(nil, "nope")}, wantCode: 404, wantReason: "unknown_model", wantOutcome: "invalid"},
		{name: "model_not_ready", s: loaded, lines: []string{chunkLine(nil, "sick")}, wantCode: 503, wantReason: "model_not_ready", wantOutcome: "unavailable"},
		{name: "default_not_loaded", s: noDefault, lines: []string{good}, wantCode: 503, wantReason: "not_loaded", wantOutcome: "unavailable"},
		{name: "bad_bias", s: loaded, lines: []string{`{"bias":{"phrases":["a"],"bonus":-1}}` + "\n"}, wantCode: 400, wantReason: "bad_bias", wantOutcome: "invalid"},
		// Past the 200 header: the reason arrives as the final record.
		{name: "bad_dims", s: loaded, lines: []string{good, chunkLine([][]float32{{1, 2}}, "")}, wantCode: 200, wantReason: "bad_dims", wantOutcome: "invalid"},
		{name: "body_too_large", s: loaded, lines: []string{good, big}, wantCode: 200, wantReason: "body_too_large", wantOutcome: "invalid"},
		{name: "bad_json_later_line", s: loaded, lines: []string{good, "{oops\n", good}, wantCode: 200, wantReason: "bad_json", wantOutcome: "invalid"},
		{name: "stall", s: loaded, lines: []string{good}, hang: true, wantCode: 200, wantReason: "stall", wantOutcome: "stalled"},
		{name: "deadline", s: loaded, timeout: "50ms", lines: []string{good, good}, gap: 150 * time.Millisecond, wantCode: 200, wantReason: "deadline", wantOutcome: "deadline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			if tc.holdSlot {
				release, ok := s.admit.acquireStream()
				if !ok {
					t.Fatal("stream slot taken")
				}
				defer release()
			}
			errsBefore := errorCounter(s, tc.wantReason)
			shedBefore := s.shedTotal["/v1/stream"].Value()
			outBefore := outcomeCount(s, "/v1/stream", tc.wantOutcome)

			pr, pw := io.Pipe()
			stop := make(chan struct{})
			defer pr.Close()
			defer close(stop)
			go func() {
				for i, l := range tc.lines {
					if i > 0 {
						select {
						case <-time.After(tc.gap):
						case <-stop:
						}
					}
					if _, err := io.WriteString(pw, l); err != nil {
						return
					}
				}
				if tc.hang {
					<-stop
				}
				pw.Close()
			}()
			method := tc.method
			if method == "" {
				method = http.MethodPost
			}
			req, _ := http.NewRequest(method, ts.URL+"/v1/stream", pr)
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			if tc.timeout != "" {
				req.Header.Set(timeoutHeader, tc.timeout)
			}
			resp, err := (&http.Client{Timeout: 10 * time.Second}).Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantCode)
			}
			var reason, msg string
			if resp.StatusCode == http.StatusOK {
				var last string
				for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
					last = sc.Text()
				}
				var up streamUpdate
				if err := json.Unmarshal([]byte(last), &up); err != nil || !up.Final {
					t.Fatalf("last line %q is not a final record (%v)", last, err)
				}
				reason, msg = up.Reason, up.Error
			} else {
				var e errorBody
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
					t.Fatalf("error body: %v", err)
				}
				reason, msg = e.Reason, e.Error
			}
			if reason != tc.wantReason || msg == "" {
				t.Errorf("reason %q message %q, want reason %q and a message", reason, msg, tc.wantReason)
			}

			// The route records the outcome once the handler has returned,
			// which may be after the client has read the reply.
			waitUntil(t, "request_seconds{outcome="+tc.wantOutcome+"}", func() bool {
				return outcomeCount(s, "/v1/stream", tc.wantOutcome) == outBefore+1
			})
			wantErrs, wantShed := errsBefore+1, shedBefore
			if tc.wantReason == "overloaded" {
				wantErrs, wantShed = errsBefore, shedBefore+1
			}
			if got := errorCounter(s, tc.wantReason); got != wantErrs {
				t.Errorf("errors_total{reason=%q} = %d, want %d", tc.wantReason, got, wantErrs)
			}
			if got := s.shedTotal["/v1/stream"].Value(); got != wantShed {
				t.Errorf("shed_total{/v1/stream} = %d, want %d", got, wantShed)
			}
		})
	}
}

// TestStreamEarlyEndLogsNoPanic holds the streams that end before their
// request body's EOF (a final record mid-body) to a clean connection: the
// handler drains the unread body itself, so net/http has no background read
// left to collide with its next one, and its error log shows no
// "panic serving ... invalid concurrent Body.Read call".
func TestStreamEarlyEndLogsNoPanic(t *testing.T) {
	sys := getSystem(t)
	good := chunkLine(sys.TestSet()[0].Frames[:2], "")
	big := chunkLine(sys.TestSet()[0].Frames[:20], "")
	s := newLoadedServer(t, Config{Workers: 1, Admission: AdmissionConfig{MaxBodyBytes: 2048}})
	defer s.Close()
	var logged bytes.Buffer
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ErrorLog = log.New(&logged, "", 0)
	ts.Start()
	client := &http.Client{Timeout: 10 * time.Second}
	for _, tc := range []struct {
		name, reason string
		lines        []string
	}{
		{"body_too_large", "body_too_large", []string{good, big}},
		{"bad_dims", "bad_dims", []string{good, chunkLine([][]float32{{1, 2}}, ""), good}},
		{"bad_json_later_line", "bad_json", []string{good, "{oops\n", good}},
	} {
		pr, pw := io.Pipe()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			for _, l := range tc.lines {
				if _, err := io.WriteString(pw, l); err != nil {
					return
				}
			}
			pw.Close()
		}()
		resp, err := client.Post(ts.URL+"/v1/stream", "application/x-ndjson", pr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var last string
		for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
			last = sc.Text()
		}
		resp.Body.Close()
		pr.Close() // unblocks a writer the transport stopped reading
		<-wrote
		var up streamUpdate
		if err := json.Unmarshal([]byte(last), &up); err != nil || !up.Final || up.Reason != tc.reason {
			t.Errorf("%s: last line %q, want a final record with reason %q", tc.name, last, tc.reason)
		}
	}
	ts.Close() // waits for every connection, so its log lines are written
	if strings.Contains(logged.String(), "panic serving") {
		t.Errorf("server error log:\n%s", logged.String())
	}
}

// TestRecognizeCheckOrder pins /v1/recognize's stage order where two
// failures are present: the model resolves before the timeout is parsed,
// so an unknown model with a bad timeout answers unknown_model.
func TestRecognizeCheckOrder(t *testing.T) {
	s := newLoadedServer(t, Config{Workers: 1})
	defer s.Close()
	body, _ := json.Marshal(recognizeRequest{
		Utterances: []utteranceRequest{{Frames: getSystem(t).TestSet()[0].Frames[:2]}},
		Timeout:    "soon",
		Model:      "nope",
	})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/recognize", strings.NewReader(string(body))))
	var e errorBody
	if rec.Code != http.StatusNotFound || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Reason != "unknown_model" {
		t.Errorf("bad timeout + unknown model: %d %s, want 404 unknown_model", rec.Code, rec.Body.String())
	}
}

// TestStreamCheckOrder pins /v1/stream's stage order where two failures are
// present: the timeout is parsed before the first line is read, so a bad
// X-Unfold-Timeout with an unknown model answers bad_timeout.
func TestStreamCheckOrder(t *testing.T) {
	s := newLoadedServer(t, Config{Workers: 1})
	defer s.Close()
	req := httptest.NewRequest(http.MethodPost, "/v1/stream", strings.NewReader(chunkLine(nil, "nope")))
	req.Header.Set(timeoutHeader, "soon")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var e errorBody
	if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Reason != "bad_timeout" {
		t.Errorf("bad timeout + unknown model: %d %s, want 400 bad_timeout", rec.Code, rec.Body.String())
	}
}

// TestModelResolve503Outcome checks the outcome label of a 503 from the
// model stage: it reads unavailable on both routes, as the gate's 503s do,
// not invalid.
func TestModelResolve503Outcome(t *testing.T) {
	s := newLoadedServer(t, Config{Workers: 1})
	defer s.Close()
	defer sickModel(t, s, "sick")()
	recognize, _ := json.Marshal(recognizeRequest{
		Utterances: []utteranceRequest{{Frames: getSystem(t).TestSet()[0].Frames[:2]}},
		Model:      "sick",
	})
	for route, body := range map[string]string{
		"/v1/recognize": string(recognize),
		"/v1/stream":    chunkLine(nil, "sick"),
	} {
		unavailable, invalid := outcomeCount(s, route, "unavailable"), outcomeCount(s, route, "invalid")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, strings.NewReader(body)))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d %s, want 503", route, rec.Code, rec.Body.String())
		}
		if got := outcomeCount(s, route, "unavailable"); got != unavailable+1 {
			t.Errorf("%s: request_seconds{outcome=unavailable} = %d, want %d", route, got, unavailable+1)
		}
		if got := outcomeCount(s, route, "invalid"); got != invalid {
			t.Errorf("%s: request_seconds{outcome=invalid} = %d, want %d", route, got, invalid)
		}
	}
}
