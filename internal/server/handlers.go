package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	unfold "repro"
	"repro/internal/acoustic"
	"repro/internal/decoder"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// utteranceRequest is one utterance's feature frames.
type utteranceRequest struct {
	Frames [][]float32 `json:"frames"`
}

// recognizeRequest is the /v1/recognize body: a batch of utterances, an
// optional decode deadline as a Go duration string ("2s", "750ms"; the
// X-Unfold-Timeout header is the fallback when the field is empty), and an
// optional model name (the ?model= query parameter is the fallback; empty
// selects the default model).
type recognizeRequest struct {
	Utterances []utteranceRequest `json:"utterances"`
	Timeout    string             `json:"timeout,omitempty"`
	Model      string             `json:"model,omitempty"`
	// Bias, when present, decodes the batch as AM ∘ LM ∘ Bias with the
	// tenant's compiled phrase machine. See docs/BIASING.md.
	Bias *biasRequest `json:"bias,omitempty"`
}

// recognizeResult is one utterance's transcript.
type recognizeResult struct {
	Words          []int32 `json:"words"`
	Text           string  `json:"text"`
	Cost           float64 `json:"cost"`
	Frames         int     `json:"frames"`
	Rescues        int64   `json:"rescues,omitempty"`
	SearchFailures int64   `json:"search_failures,omitempty"`
	Error          string  `json:"error,omitempty"`
}

// recognizeResponse is the /v1/recognize reply. Degraded is the ladder
// level the batch decoded at (absent when full quality), so a client can
// tell a pressure-narrowed transcript from a full-search one.
type recognizeResponse struct {
	Results    []recognizeResult `json:"results"`
	Degraded   int               `json:"degraded,omitempty"`
	Throughput struct {
		UttPerSec    float64 `json:"utt_per_sec"`
		FramesPerSec float64 `json:"frames_per_sec"`
		RTF          float64 `json:"rtf"`
		CacheHitRate float64 `json:"cache_hit_rate"`
	} `json:"throughput"`
}

// checkDims validates every frame row against the acoustic model's feature
// dimension so a malformed request fails with a 400, not a panic deep in
// the scorer.
func checkDims(frames [][]float32, dim int) error {
	for i, f := range frames {
		if len(f) != dim {
			return fmt.Errorf("frame %d has dim %d, want %d", i, len(f), dim)
		}
	}
	return nil
}

// failure is how a request fails: the status, the reason token (sent and
// counted under unfold_server_errors_total{reason}), the message, and
// whether Retry-After applies. A failure without a status has nothing left
// to answer: its client is gone, or it ended a stream past the 200 header.
type failure struct {
	code   int
	reason string
	msg    string
	retry  bool
}

func (f *failure) Error() string { return f.msg }

func fail(code int, reason, msg string) *failure {
	return &failure{code: code, reason: reason, msg: msg}
}

func unavailable(reason, msg string) *failure {
	return &failure{code: http.StatusServiceUnavailable, reason: reason, msg: msg, retry: true}
}

// errCanceled ends a request whose client is gone: nobody reads a reply, so
// nothing is written and nothing is counted under errors_total.
var errCanceled = &failure{reason: "canceled"}

// outcome is the unfold_server_request_seconds label of a request that
// ended with f (nil is success).
func (f *failure) outcome() string {
	switch {
	case f == nil:
		return "ok"
	case f == errShed:
		return "shed"
	case f.reason == "canceled", f.reason == "deadline":
		return f.reason
	case f.reason == "stall":
		return "stalled"
	case f.reason == "fault":
		// A fault is a 500, but it ends a stream past its header, where
		// sn.fail has already answered the status.
		return "error"
	case f.code == http.StatusServiceUnavailable:
		return "unavailable"
	case f.code >= 500:
		return "error"
	}
	return "invalid"
}

// route serves a decode route: it counts and times the request, runs the
// gate and then the route's own stages, answers a failure returned before
// the 200 header, and records unfold_server_request_seconds{route,outcome}
// from the failure. accept names the route's body type in the gate's 415.
func (s *Server) route(name, accept string, h func(http.ResponseWriter, *http.Request) *failure) http.Handler {
	return s.counted(name, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		f := s.gate(r, accept)
		if f == nil {
			f = h(w, r)
		}
		if f != nil {
			s.writeError(w, name, f)
		}
		s.reg.Histogram("unfold_server_request_seconds", "Request latency by route and outcome.",
			requestBuckets, telemetry.L("route", name), telemetry.L("outcome", f.outcome())).
			Observe(time.Since(start).Seconds())
	}))
}

// gate is both decode routes' first stage: POST only, a JSON Content-Type,
// and a server that is neither draining nor without a model. A request
// without a Content-Type is taken at face value (curl one-liners and
// existing clients omit it), so only an explicit wrong type earns a 415.
func (s *Server) gate(r *http.Request, accept string) *failure {
	if r.Method != http.MethodPost {
		return fail(http.StatusMethodNotAllowed, "method", "POST required")
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || mt != "application/json" && mt != "application/x-ndjson" &&
			mt != "text/json" && !strings.HasSuffix(mt, "+json") {
			return fail(http.StatusUnsupportedMediaType, "content_type", fmt.Sprintf("cannot decode %q; send %s", ct, accept))
		}
	}
	if s.draining.Load() {
		return unavailable("draining", "server is draining")
	}
	if s.models.empty() {
		return unavailable("not_loaded", "model not loaded")
	}
	return nil
}

// parseFailure maps a request-body read error: past the byte cap a 413
// body_too_large (tooBig formats the cap), anything else a 400 bad_json.
func parseFailure(err error, tooBig, badPrefix string) *failure {
	var mb *http.MaxBytesError
	if errors.As(err, &mb) {
		return fail(http.StatusRequestEntityTooLarge, "body_too_large", fmt.Sprintf(tooBig, mb.Limit))
	}
	return fail(http.StatusBadRequest, "bad_json", badPrefix+err.Error())
}

// deadline is the timeout stage: the request's decode deadline (field, else
// the X-Unfold-Timeout header, else the configured default) on a context
// the caller must cancel.
func (s *Server) deadline(r *http.Request, field string) (context.Context, context.CancelFunc, *failure) {
	timeout, err := s.admit.parseTimeout(r, field)
	if err != nil {
		return nil, nil, fail(http.StatusBadRequest, "bad_timeout", err.Error())
	}
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		return ctx, cancel, nil
	}
	ctx, cancel := context.WithCancel(r.Context())
	return ctx, cancel, nil
}

// ctxFailure is the failure of a request whose context has ended: a 408
// past its deadline (msg says where it ran out), else a client gone away.
func ctxFailure(ctx context.Context, msg string) *failure {
	switch err := ctx.Err(); {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fail(http.StatusRequestTimeout, "deadline", msg)
	}
	return errCanceled
}

// handleRecognize decodes a batch of utterances behind the admission gate:
// validation is free and happens first, then the request claims an
// execution slot, decodes at the degradation level the current queue depth
// selects, and frees its slot the moment its deadline fires — an expired
// request never holds a slot. Its utterances decode one after another on
// the request's goroutine and one decoder from the model's free list, each
// scored as its search reads it (for a GMM, only the senones each pruned
// frontier reads) — inside the slot, since scoring is real CPU work.
func (s *Server) handleRecognize(w http.ResponseWriter, r *http.Request) *failure {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.Admission.MaxBodyBytes)
	var req recognizeRequest
	in := newFeatureReader(r.Body, s.cfg.Admission.MaxBodyBytes)
	err := in.recognize(&req)
	in.release()
	if err != nil {
		return parseFailure(err, "request body exceeds %d bytes", "bad JSON: ")
	}
	m, releaseModel, f := s.resolveModel(r, req.Model)
	if f != nil {
		return f
	}
	defer releaseModel()
	if len(req.Utterances) == 0 {
		return fail(http.StatusBadRequest, "empty_batch", "no utterances")
	}
	for i, u := range req.Utterances {
		if len(u.Frames) == 0 {
			return fail(http.StatusBadRequest, "empty_utterance", fmt.Sprintf("utterance %d is empty", i))
		}
		if err := checkDims(u.Frames, m.rec.Senones.Dim); err != nil {
			return fail(http.StatusBadRequest, "bad_dims", fmt.Sprintf("utterance %d: %v", i, err))
		}
	}
	opts, err := s.decodeOptions(m, req.Bias)
	if err != nil {
		return badBias(err)
	}
	ctx, cancel, f := s.deadline(r, req.Timeout)
	if f != nil {
		return f
	}
	defer cancel()
	release, err := s.admit.acquire(ctx)
	if err == errShed {
		return errShed
	}
	if err != nil {
		return ctxFailure(ctx, "deadline expired before a decode slot was free")
	}
	defer release()

	// The level the queue depth selects now is the operating point for this
	// whole batch.
	level := s.degrade(&opts)
	dec, err := m.takeDecoder(s.cfg.Decoder, opts)
	if err != nil {
		return badBias(err)
	}
	faulted := false
	defer func() { m.putDecoder(dec, faulted) }()
	u := acoustic.NewUtterance(m.rec.Scorer)
	defer u.Close()

	start := time.Now()
	resp := recognizeResponse{Results: make([]recognizeResult, len(req.Utterances)), Degraded: level}
	errs := make([]*unfold.DecodeError, len(req.Utterances))
	var work decoder.Stats
	for i, utt := range req.Utterances {
		u.Reset()
		u.Load(utt.Frames)
		res, err := dec.DecodeContext(ctx, u, len(utt.Frames))
		if f := ctxFailure(ctx, "decode exceeded the request deadline"); f != nil {
			return f
		}
		if err != nil { // a fault: the utterance fails alone, and dec is dropped
			errs[i] = &unfold.DecodeError{Utterance: i, Stage: unfold.StageSearch, Cause: err}
			resp.Results[i].Error, faulted = errs[i].Error(), true
			continue
		}
		work.Add(res.Stats)
		resp.Results[i] = recognizeResult{Words: res.Words, Text: strings.Join(m.rec.Words(res.Words), " "),
			Cost: float64(res.Cost), Frames: res.Stats.Frames, Rescues: res.Stats.Rescues, SearchFailures: res.Stats.SearchFailures}
	}
	// Feed the supervisor: enough consecutive whole-batch search failures
	// quarantine the model (see supervisor.go); any success resets.
	s.models.noteBatch(m, errs)
	tp := metrics.Throughput{Utterances: len(errs), Frames: work.Frames, Wall: time.Since(start),
		CacheHits: work.MemoHits, CacheLookups: work.MemoHits + work.MemoMisses}
	resp.Throughput.UttPerSec = tp.UtterancesPerSec()
	resp.Throughput.FramesPerSec = tp.FramesPerSec()
	resp.Throughput.RTF = tp.RTF()
	resp.Throughput.CacheHitRate = tp.CacheHitRate()
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// streamChunk is one NDJSON input line on /v1/stream: a chunk of feature
// frames to append to the utterance. Model on the first line selects the
// model for the whole stream (the ?model= query parameter is the
// fallback); later lines ignore it.
type streamChunk struct {
	Frames [][]float32 `json:"frames"`
	Model  string      `json:"model,omitempty"`
	// Bias on the first line biases the whole stream (like Model, later
	// lines ignore it): the utterance decodes as AM ∘ LM ∘ Bias over the
	// tenant's compiled phrase machine.
	Bias *biasRequest `json:"bias,omitempty"`
}

// streamUpdate is the NDJSON reply line emitted after each chunk (and, with
// Final set, after the stream ends).
type streamUpdate struct {
	Words  []int32 `json:"words"`
	Text   string  `json:"text"`
	Frames int     `json:"frames"`
	Final  bool    `json:"final,omitempty"`
	// Populated on the final line only.
	Cost           float64 `json:"cost,omitempty"`
	Rescues        int64   `json:"rescues,omitempty"`
	SearchFailures int64   `json:"search_failures,omitempty"`
	Degraded       int     `json:"degraded,omitempty"`
	Error          string  `json:"error,omitempty"`
	// Reason is errorBody's Reason on a final record that ends the stream
	// with an error after the 200 header.
	Reason string `json:"reason,omitempty"`
}

// streamSender owns all response writes for one /v1/stream connection: a
// dedicated writer goroutine drains a bounded buffer so a client that stops
// reading cannot block the decode loop. Partial updates are latest-wins —
// when the buffer fills, the oldest queued partial is dropped (counted
// under unfold_server_stream_partials_dropped_total) — and final records
// are enqueued blocking, so they are never lost to the policy. With
// Config.Stream.WriteTimeout set, each write carries a deadline; a write
// that misses it (or fails outright — the client is gone) cancels the
// stream's context so the decode stops doing work nobody will read.
type streamSender struct {
	srv    *Server
	enc    *json.Encoder
	rc     *http.ResponseController
	cancel context.CancelFunc
	level  int // the degradation level, for the deadline record

	ch   chan streamUpdate
	done chan struct{}
	once sync.Once
	err  error // first write error; written by run, read only after done
}

func (s *Server) newStreamSender(w http.ResponseWriter, cancel context.CancelFunc, level int) *streamSender {
	sn := &streamSender{
		srv:    s,
		enc:    json.NewEncoder(w),
		rc:     http.NewResponseController(w),
		cancel: cancel,
		level:  level,
		ch:     make(chan streamUpdate, s.cfg.Stream.SendBuffer),
		done:   make(chan struct{}),
	}
	go sn.run()
	return sn
}

func (sn *streamSender) run() {
	defer close(sn.done)
	for u := range sn.ch {
		if sn.err != nil {
			continue // drain: the connection is dead, the decode canceled
		}
		if wt := sn.srv.cfg.Stream.WriteTimeout; wt > 0 {
			// ErrNotSupported (test recorders) deliberately ignored.
			sn.rc.SetWriteDeadline(time.Now().Add(wt))
		}
		if err := sn.enc.Encode(u); err != nil {
			sn.err = err
			if errors.Is(err, os.ErrDeadlineExceeded) {
				sn.srv.streamsStalled.Inc()
			}
			sn.cancel()
			continue
		}
		sn.rc.Flush()
	}
}

// partial enqueues a partial update, dropping the oldest queued one when
// the client has let the buffer fill.
func (sn *streamSender) partial(u streamUpdate) {
	for {
		select {
		case sn.ch <- u:
			return
		default:
		}
		select {
		case <-sn.ch:
			sn.srv.partialsDropped.Inc()
		default:
		}
	}
}

// final enqueues a terminal record (blocking — never dropped), stops the
// writer, and reports the first write error, if any.
func (sn *streamSender) final(u streamUpdate) error {
	sn.ch <- u
	sn.stop()
	return sn.err
}

// fail is writeError past the 200 header: it counts f the same way, counts
// a stream cut short by a clock or its client (any outcome but invalid
// input) under streams_aborted_total, and enqueues the final record, which
// for a deadline carries the level the stream decoded at against it. It
// returns f without its status, which has been answered.
func (sn *streamSender) fail(f *failure) *failure {
	s := sn.srv
	if f.outcome() != "invalid" {
		s.streamsAborted.Inc()
	}
	if f != errCanceled {
		s.countError(f)
		u := streamUpdate{Final: true, Reason: f.reason, Error: f.msg}
		if f.reason == "deadline" {
			u.Degraded = sn.level
		}
		sn.final(u)
	}
	return &failure{reason: f.reason}
}

// stop ends the writer goroutine after the queue drains. Idempotent; safe
// to defer alongside an explicit final.
func (sn *streamSender) stop() {
	sn.once.Do(func() {
		close(sn.ch)
		<-sn.done
	})
}

// handleStream runs an incremental decode over a chunked NDJSON exchange:
// each request line carries feature frames, each response line the current
// best partial hypothesis, flushed immediately so the client sees the
// transcript grow while it is still sending audio. EOF on the request body
// finalizes the utterance.
//
// Each stream checks a decoder out of the model's free list for its life —
// so its offset table and the scratch set its decoder.Stream borrows come
// warm from an earlier stream — and a private acoustic.Utterance that
// scores each chunk as the search reads it (a GMM only the senones each
// frontier reads), carrying the scorer's state (the recurrent scorer's
// hidden state and smoother) from chunk to chunk. A stream's words, word
// ends and cost are therefore those /v1/recognize returns for the same
// frames, for every scorer and every chunking.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) *failure {
	// Deferred first, so it runs last: a stream that ends before its body's
	// EOF drains the rest here, after the sender and the decoder are
	// released. Left to net/http, the drain runs after it has aborted its
	// pending read, and a background read started at EOF then collides with
	// the next request's read ("invalid concurrent Body.Read call").
	defer r.Body.Close()
	// The stream context is always cancelable: the sender cancels it when
	// the client stops reading, the watchdog when it stops sending.
	ctx, cancel, f := s.deadline(r, "")
	if f != nil {
		return f
	}
	defer cancel()
	// Streams are long-lived, so there is no queue: past MaxStreams the
	// honest answer is an immediate shed, not minutes of head-of-line wait.
	releaseStream, ok := s.admit.acquireStream()
	if !ok {
		return errShed
	}
	defer releaseStream()

	// Each line may take up to MaxBodyBytes, the /v1/recognize body cap,
	// counted from the end of the one before. The watchdog bounds each read,
	// so a client that sends headers and then nothing gets a 408, not a
	// parked goroutine. (SetReadDeadline errors are ignored: test recorders
	// don't support deadlines and don't need them.)
	rc := http.NewResponseController(w)
	in := newFeatureReader(r.Body, s.cfg.Admission.MaxBodyBytes)
	defer in.release()
	var chunk streamChunk
	read := func() error {
		if wd := s.cfg.Stream.Watchdog; wd > 0 {
			rc.SetReadDeadline(time.Now().Add(wd))
		}
		return in.chunk(&chunk)
	}
	// Peek the first NDJSON line before any response bytes: it may carry
	// the model selector, and resolving the model up front lets an unknown
	// name answer a clean 404 instead of failing mid-stream.
	readErr := read()
	if readErr != nil && !errors.Is(readErr, io.EOF) {
		return s.lineFailure(readErr, true)
	}
	m, releaseModel, f := s.resolveModel(r, chunk.Model)
	if f != nil {
		return f
	}
	defer releaseModel()
	opts, err := s.decodeOptions(m, chunk.Bias)
	if err != nil {
		return badBias(err)
	}

	// The pressure level at connection time sets this stream's operating
	// point, installed on the stream's decoder with the bias machine.
	level := s.degrade(&opts)
	dec, err := m.takeDecoder(s.cfg.Decoder, opts)
	if err != nil {
		// The machine compiled but cannot compose with this model's graphs
		// (state-count guardrails): still a client problem.
		return badBias(err)
	}
	faulted := false
	defer func() { m.putDecoder(dec, faulted) }()
	stream := dec.NewStream()
	defer stream.Close()
	scorer := acoustic.NewUtterance(m.rec.Scorer)
	defer scorer.Close()

	s.streamsActive.Add(1)
	s.streamsGauge.Inc()
	defer func() {
		s.streamsActive.Add(-1)
		s.streamsGauge.Dec()
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	// HTTP/1.x servers drain the unread request body before the first
	// response flush; a streaming exchange needs concurrent read and write
	// or the two sides deadlock, each waiting for the other. The error is
	// ignored deliberately: transports that don't support the switch
	// (HTTP/2, test recorders) are already full-duplex or in-memory.
	rc.EnableFullDuplex()
	// The sender stops once: by a final record, or by the deferred stop.
	sn := s.newStreamSender(w, cancel, level)
	defer sn.stop()
	frames := 0

	// The peeked first line is the first chunk; a clean EOF on the peek
	// finalizes at once. The decode deadline is checked before every read.
	for peeked := true; ; peeked = false {
		if f := ctxFailure(ctx, "stream exceeded its decode deadline"); f != nil {
			return sn.fail(f)
		}
		if !peeked {
			readErr = read()
		}
		if readErr != nil {
			break
		}
		if err := checkDims(chunk.Frames, m.rec.Senones.Dim); err != nil {
			return sn.fail(fail(http.StatusBadRequest, "bad_dims", err.Error()))
		}
		// Search the chunk one frame at a time, as a live frontend would,
		// scoring each frame as the search reaches it. A dead search is not
		// an error — the rest of the chunk is skipped and Finish reports the
		// best partial with SearchFailures set. A fault ends the stream,
		// drops its decoder and counts toward the model's quarantine.
		scorer.Load(chunk.Frames)
		if err := stream.Feed(scorer, len(chunk.Frames)); err != nil {
			faulted = true
			s.models.noteDecodeFailure(m)
			return sn.fail(fail(http.StatusInternalServerError, "fault", err.Error()))
		}
		frames += len(chunk.Frames)
		words := stream.Partial()
		sn.partial(streamUpdate{Words: words, Text: strings.Join(m.rec.Words(words), " "), Frames: frames})
	}
	if !errors.Is(readErr, io.EOF) {
		return sn.fail(s.lineFailure(readErr, false))
	}

	res := stream.Finish()
	s.models.noteDecodeSuccess(m)
	if sn.final(streamUpdate{
		Words:          res.Words,
		Text:           strings.Join(m.rec.Words(res.Words), " "),
		Frames:         res.Stats.Frames,
		Final:          true,
		Cost:           float64(res.Cost),
		Rescues:        res.Stats.Rescues,
		SearchFailures: res.Stats.SearchFailures,
		Degraded:       level,
	}) != nil {
		return sn.fail(errCanceled)
	}
	return nil
}

// lineFailure maps a /v1/stream read error: a read past the watchdog is a
// stall (a frame clock that stopped mid-stream cancels the decode), a line
// over the byte cap is body_too_large, a line encoding/json refuses is
// bad_json, and any other error is bad_json on the first line and, later, a
// client that went away.
func (s *Server) lineFailure(err error, first bool) *failure {
	var mb *http.MaxBytesError
	var syntax *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded):
		msg := fmt.Sprintf("no frames within %s", s.cfg.Stream.Watchdog)
		if !first {
			msg += ": frame clock stalled, decode canceled"
		}
		return fail(http.StatusRequestTimeout, "stall", msg)
	case first:
		return parseFailure(err, "stream line exceeds %d bytes", "bad NDJSON first line: ")
	case errors.As(err, &mb), errors.As(err, &syntax), errors.As(err, &typ):
		return parseFailure(err, "stream line exceeds %d bytes", "bad NDJSON line: ")
	}
	return errCanceled
}

// testsetItem describes one held-out utterance.
type testsetItem struct {
	Utt    int         `json:"utt"`
	Ref    string      `json:"ref"`
	Frames int         `json:"frames"`
	Data   [][]float32 `json:"data,omitempty"`
}

// handleTestset exposes a model's held-out utterances so a client (or the
// runbook's curl examples) has real frames to send: GET /v1/testset lists
// references, GET /v1/testset?utt=N includes utterance N's frames, and
// ?model= selects the model. Bundle-loaded models carry no evaluation
// data, so they answer 404.
func (s *Server) handleTestset(w http.ResponseWriter, r *http.Request) {
	m, releaseModel, f := s.resolveModel(r, "")
	if f != nil {
		s.writeError(w, "/v1/testset", f)
		return
	}
	defer releaseModel()
	test := m.test
	if test == nil {
		s.writeError(w, "/v1/testset", fail(http.StatusNotFound, "no_testset",
			fmt.Sprintf("model %q was loaded from a bundle and carries no test set", m.name)))
		return
	}
	if q := r.URL.Query().Get("utt"); q != "" {
		i, err := strconv.Atoi(q)
		if err != nil || i < 0 || i >= len(test) {
			s.writeError(w, "/v1/testset", fail(http.StatusBadRequest, "bad_utt", fmt.Sprintf("utt must be in [0,%d)", len(test))))
			return
		}
		u := test[i]
		writeJSON(w, http.StatusOK, testsetItem{
			Utt: i, Ref: strings.Join(m.rec.Words(u.Words), " "), Frames: len(u.Frames), Data: u.Frames,
		})
		return
	}
	items := make([]testsetItem, len(test))
	for i, u := range test {
		items[i] = testsetItem{Utt: i, Ref: strings.Join(m.rec.Words(u.Words), " "), Frames: len(u.Frames)}
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(test), "utterances": items})
}
