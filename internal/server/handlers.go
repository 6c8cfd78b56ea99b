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

	"repro/internal/acoustic"
	"repro/internal/decoder"
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

// compatibleContentType reports whether an explicitly-set Content-Type can
// carry the JSON bodies the decode routes accept. Requests without the
// header are taken at face value (curl one-liners and existing clients
// omit it), so only an explicit wrong type earns a 415.
func compatibleContentType(ct string) bool {
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return false
	}
	return mt == "application/json" || mt == "application/x-ndjson" ||
		mt == "text/json" || strings.HasSuffix(mt, "+json")
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

// handleRecognize decodes a batch of utterances through the worker pool,
// behind the admission gate: validation is free and happens first, then the
// request claims an execution slot (queueing behind at most MaxQueue
// waiters, shedding with a structured 429 past that), decodes at the
// degradation level the current queue depth selects, and frees its slot the
// moment its deadline fires — an expired request never occupies a worker.
// The utterances fan out across the pool as feature frames: each worker
// scores its utterance as its search reads it, which for a GMM means only
// the senones each pruned frontier reads (pool.DecodeFeatures).
func (s *Server) handleRecognize(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	outcome := "error"
	defer func() { s.observeLatency("/v1/recognize", outcome, start) }()

	if r.Method != http.MethodPost {
		outcome = "invalid"
		s.fail(w, http.StatusMethodNotAllowed, "method", "POST required")
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" && !compatibleContentType(ct) {
		outcome = "invalid"
		s.fail(w, http.StatusUnsupportedMediaType, "content_type", fmt.Sprintf("cannot decode %q; send application/json", ct))
		return
	}
	if s.draining.Load() {
		outcome = "unavailable"
		s.failRetry(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	if s.models.empty() {
		outcome = "unavailable"
		s.failRetry(w, http.StatusServiceUnavailable, "not_loaded", "model not loaded")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.Admission.MaxBodyBytes)
	var req recognizeRequest
	in := newFeatureReader(r.Body, s.cfg.Admission.MaxBodyBytes)
	err := in.recognize(&req)
	in.release()
	if err != nil {
		outcome = "invalid"
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		s.fail(w, http.StatusBadRequest, "bad_json", "bad JSON: "+err.Error())
		return
	}
	if req.Model == "" {
		req.Model = r.URL.Query().Get("model")
	}
	m, releaseModel, ok := s.resolveModel(w, req.Model)
	if !ok {
		outcome = "invalid"
		return
	}
	// The reference pins the model's graphs (for a v3 bundle, the memory
	// mapping) until the batch is done; a drain waits on it.
	defer releaseModel()
	if len(req.Utterances) == 0 {
		outcome = "invalid"
		s.fail(w, http.StatusBadRequest, "empty_batch", "no utterances")
		return
	}
	dim := m.dim()
	for i, u := range req.Utterances {
		if len(u.Frames) == 0 {
			outcome = "invalid"
			s.fail(w, http.StatusBadRequest, "empty_utterance", fmt.Sprintf("utterance %d is empty", i))
			return
		}
		if err := checkDims(u.Frames, dim); err != nil {
			outcome = "invalid"
			s.fail(w, http.StatusBadRequest, "bad_dims", fmt.Sprintf("utterance %d: %v", i, err))
			return
		}
	}
	tb, berr := s.tenantBias(m, req.Bias)
	if berr != nil {
		outcome = "invalid"
		s.fail(w, http.StatusBadRequest, "bad_bias", badBias(berr))
		return
	}
	timeout, err := s.admit.parseTimeout(r, req.Timeout)
	if err != nil {
		outcome = "invalid"
		s.fail(w, http.StatusBadRequest, "bad_timeout", err.Error())
		return
	}
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	release, aerr := s.admit.acquire(ctx)
	if aerr != nil {
		switch {
		case errors.Is(aerr, errShed):
			outcome = "shed"
			s.shed(w, "/v1/recognize")
		case errors.Is(aerr, context.DeadlineExceeded):
			outcome = "deadline"
			s.fail(w, http.StatusRequestTimeout, "deadline", "deadline expired before a decode slot was free")
		default:
			// Client went away while queued; nobody is listening for a body.
			outcome = "canceled"
		}
		return
	}
	defer release()

	// Sample the pressure controller once per request: the level the queue
	// depth selects now is the operating point for this whole batch.
	level := s.admit.level()
	var preset *decoder.SearchPreset
	if level > 0 {
		pr := s.cfg.Decoder.DegradedPreset(level)
		preset = &pr
		s.degradedTotal.Inc()
	}

	// Scoring happens on the pool workers, inside the execution slot — it
	// is real CPU work, and admitting it unbounded would defeat the gate.
	feats := make([][][]float32, len(req.Utterances))
	for i, u := range req.Utterances {
		feats[i] = u.Frames
	}
	batch, _ := m.pool.DecodeFeatures(ctx, m.scorer(), feats, preset, tb)
	if cerr := ctx.Err(); cerr != nil {
		if errors.Is(cerr, context.DeadlineExceeded) {
			outcome = "deadline"
			s.fail(w, http.StatusRequestTimeout, "deadline", "decode exceeded the request deadline")
		} else {
			outcome = "canceled"
		}
		return
	}
	// Feed the supervisor: enough consecutive whole-batch search failures
	// quarantine the model (see supervisor.go); any success resets.
	s.models.noteBatch(m, batch.Errors)
	outcome = "ok"
	resp := recognizeResponse{Results: make([]recognizeResult, len(batch.Results)), Degraded: level}
	for i, res := range batch.Results {
		out := &resp.Results[i]
		if batch.Errors[i] != nil {
			out.Error = batch.Errors[i].Error()
		}
		if res == nil {
			continue
		}
		out.Words = res.Words
		out.Text = m.words(res.Words)
		out.Cost = float64(res.Cost)
		out.Frames = res.Stats.Frames
		out.Rescues = res.Stats.Rescues
		out.SearchFailures = res.Stats.SearchFailures
	}
	resp.Throughput.UttPerSec = batch.Throughput.UtterancesPerSec()
	resp.Throughput.FramesPerSec = batch.Throughput.FramesPerSec()
	resp.Throughput.RTF = batch.Throughput.RTF()
	resp.Throughput.CacheHitRate = batch.Throughput.CacheHitRate()
	writeJSON(w, http.StatusOK, resp)
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

// lineTooLarge is the message for a stream line over the byte cap.
func lineTooLarge(err *http.MaxBytesError) string {
	return fmt.Sprintf("stream line exceeds %d bytes", err.Limit)
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
	// Reason is the machine-matchable token on mid-stream error records
	// ("stall", "bad_dims", "body_too_large", "deadline"),
	// mirroring errorBody's Reason for errors that happen after the 200
	// header is committed.
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
	srv     *Server
	enc     *json.Encoder
	flusher http.Flusher
	rc      *http.ResponseController
	timeout time.Duration
	cancel  context.CancelFunc

	ch   chan streamUpdate
	done chan struct{}
	once sync.Once
	err  error // first write error; written by run, read only after done
}

func (s *Server) newStreamSender(w http.ResponseWriter, cancel context.CancelFunc) *streamSender {
	flusher, _ := w.(http.Flusher)
	sn := &streamSender{
		srv:     s,
		enc:     json.NewEncoder(w),
		flusher: flusher,
		rc:      http.NewResponseController(w),
		timeout: s.cfg.Stream.WriteTimeout,
		cancel:  cancel,
		ch:      make(chan streamUpdate, s.cfg.Stream.SendBuffer),
		done:    make(chan struct{}),
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
		if sn.timeout > 0 {
			// ErrNotSupported (test recorders) deliberately ignored.
			sn.rc.SetWriteDeadline(time.Now().Add(sn.timeout))
		}
		if err := sn.enc.Encode(u); err != nil {
			sn.err = err
			if errors.Is(err, os.ErrDeadlineExceeded) {
				sn.srv.streamsStalled.Inc()
			}
			sn.cancel()
			continue
		}
		if sn.flusher != nil {
			sn.flusher.Flush()
		}
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
// finalizes the utterance; cancellation (client disconnect, context
// deadline) aborts it and counts toward unfold_server_streams_aborted_total.
//
// Each stream checks a decoder out of the model's free list for its life —
// so its offset table and the scratch set its decoder.Stream borrows come
// warm from an earlier stream — and a private acoustic.Utterance that
// scores each chunk as the search reads it (a GMM only the senones each
// frontier reads), carrying the scorer's state (the recurrent scorer's
// hidden state and smoother) from chunk to chunk. A stream's words, word
// ends and cost are therefore those /v1/recognize returns for the same
// frames, for every scorer and every chunking.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	begin := time.Now()
	outcome := "error"
	defer func() { s.observeLatency("/v1/stream", outcome, begin) }()

	if r.Method != http.MethodPost {
		outcome = "invalid"
		s.fail(w, http.StatusMethodNotAllowed, "method", "POST required")
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" && !compatibleContentType(ct) {
		outcome = "invalid"
		s.fail(w, http.StatusUnsupportedMediaType, "content_type", fmt.Sprintf("cannot decode %q; send application/x-ndjson", ct))
		return
	}
	if s.draining.Load() {
		outcome = "unavailable"
		s.failRetry(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	if s.models.empty() {
		outcome = "unavailable"
		s.failRetry(w, http.StatusServiceUnavailable, "not_loaded", "model not loaded")
		return
	}
	timeout, err := s.admit.parseTimeout(r, "")
	if err != nil {
		outcome = "invalid"
		s.fail(w, http.StatusBadRequest, "bad_timeout", err.Error())
		return
	}
	// Streams are long-lived, so there is no queue: past MaxStreams the
	// honest answer is an immediate shed, not minutes of head-of-line wait.
	releaseStream, ok := s.admit.acquireStream()
	if !ok {
		outcome = "shed"
		s.shed(w, "/v1/stream")
		return
	}
	defer releaseStream()

	// The stream context is always cancelable: the sender cancels it when
	// the client stops reading, the watchdog when it stops sending.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	rc := http.NewResponseController(w)
	watchdog := s.cfg.Stream.Watchdog

	// Peek the first NDJSON line before any response bytes: it may carry
	// the model selector, and resolving the model up front lets an unknown
	// name answer a clean 404 instead of failing mid-stream. The watchdog
	// covers the peek too — a client that sends headers and then nothing
	// gets a 408, not a parked goroutine. (SetReadDeadline errors are
	// ignored: test recorders don't support deadlines and don't need them.)
	if watchdog > 0 {
		rc.SetReadDeadline(time.Now().Add(watchdog))
	}
	// Each line may take up to MaxBodyBytes, the /v1/recognize body cap;
	// the reader counts every line from the end of the one before.
	in := newFeatureReader(r.Body, s.cfg.Admission.MaxBodyBytes)
	defer in.release()
	var first streamChunk
	firstErr := in.chunk(&first)
	if firstErr != nil && !errors.Is(firstErr, io.EOF) {
		if errors.Is(firstErr, os.ErrDeadlineExceeded) {
			outcome = "stalled"
			s.streamsStalled.Inc()
			s.fail(w, http.StatusRequestTimeout, "stall", fmt.Sprintf("no frames within %s", watchdog))
			return
		}
		outcome = "invalid"
		var tooBig *http.MaxBytesError
		if errors.As(firstErr, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, "body_too_large", lineTooLarge(tooBig))
			return
		}
		s.fail(w, http.StatusBadRequest, "bad_json", "bad NDJSON first line: "+firstErr.Error())
		return
	}
	name := first.Model
	if name == "" {
		name = r.URL.Query().Get("model")
	}
	m, releaseModel, ok := s.resolveModel(w, name)
	if !ok {
		outcome = "invalid"
		return
	}
	// The reference pins the model's graphs (for a v3 bundle, the memory
	// mapping) for the stream's whole life; a drain waits on it.
	defer releaseModel()

	tb, berr := s.tenantBias(m, first.Bias)
	if berr != nil {
		outcome = "invalid"
		s.fail(w, http.StatusBadRequest, "bad_bias", badBias(berr))
		return
	}

	// The pressure level at connection time sets this stream's operating
	// point, installed on the stream's decoder.
	level := s.admit.level()
	dcfg := s.cfg.Decoder
	dcfg.Telemetry = s.ptel.Decoder
	dec, err := m.takeStreamDecoder(dcfg)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	defer m.putStreamDecoder(dec)
	if level > 0 {
		dec.SetSearchPreset(s.cfg.Decoder.DegradedPreset(level))
		s.degradedTotal.Inc()
	}
	if tb != nil {
		if err := dec.SetBias(tb.Machine); err != nil {
			// The machine compiled but cannot compose with this model's
			// graphs (state-count guardrails): still a client problem.
			outcome = "invalid"
			s.fail(w, http.StatusBadRequest, "bad_bias", badBias(err))
			return
		}
	}
	stream := dec.NewStream()
	defer stream.Close()
	scorer := acoustic.NewUtterance(m.scorer())
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
	// Every response write goes through the sender: bounded latest-wins
	// buffer, per-write deadlines, cancel-on-dead-client. It is stopped
	// exactly once — by a final record on each normal exit, or by the
	// deferred stop on early returns.
	sn := s.newStreamSender(w, cancel)
	defer sn.stop()
	dim := m.dim()
	frames := 0

	// The peeked first line is the first chunk; later iterations read from
	// the wire (a clean EOF on the peek skips straight to finalization —
	// the reader keeps returning io.EOF).
	chunk, haveChunk := first, firstErr == nil
	for {
		if cerr := ctx.Err(); cerr != nil {
			if errors.Is(cerr, context.DeadlineExceeded) {
				// The stream outlived its decode deadline: tell the client
				// on the wire it is already reading, then stop.
				outcome = "deadline"
				sn.final(streamUpdate{Final: true, Degraded: level, Reason: "deadline", Error: "stream exceeded its decode deadline"})
			} else {
				outcome = "canceled"
			}
			s.streamsAborted.Inc()
			return
		}
		if !haveChunk {
			if watchdog > 0 {
				rc.SetReadDeadline(time.Now().Add(watchdog))
			}
			if err := in.chunk(&chunk); err != nil {
				if errors.Is(err, io.EOF) {
					break // client finished sending; finalize below
				}
				var tooBig *http.MaxBytesError
				if errors.As(err, &tooBig) {
					outcome = "invalid"
					s.countError("body_too_large")
					sn.final(streamUpdate{Final: true, Reason: "body_too_large", Error: lineTooLarge(tooBig)})
					return
				}
				if errors.Is(err, os.ErrDeadlineExceeded) {
					// The frame clock stalled: the client holds the
					// connection open but stopped sending. Cancel the decode
					// and say why in a structured final record on the wire
					// the client is (nominally) still reading.
					outcome = "stalled"
					s.streamsStalled.Inc()
					s.streamsAborted.Inc()
					sn.final(streamUpdate{Final: true, Reason: "stall",
						Error: fmt.Sprintf("no frames within %s: frame clock stalled, decode canceled", watchdog)})
					return
				}
				// Mid-stream read failure: disconnect or canceled request.
				outcome = "canceled"
				s.streamsAborted.Inc()
				return
			}
		}
		haveChunk = false
		if err := checkDims(chunk.Frames, dim); err != nil {
			outcome = "invalid"
			sn.final(streamUpdate{Final: true, Reason: "bad_dims", Error: err.Error()})
			return
		}
		// Search the chunk one frame at a time, as a live frontend would,
		// scoring each frame as the search reaches it. A dead search is not
		// an error — the rest of the chunk is skipped and Finish reports the
		// best partial with SearchFailures set.
		scorer.Load(chunk.Frames)
		stream.Feed(scorer, len(chunk.Frames))
		frames += len(chunk.Frames)
		words := stream.Partial()
		sn.partial(streamUpdate{Words: words, Text: m.words(words), Frames: frames})
	}

	res := stream.Finish()
	s.models.noteDecodeSuccess(m)
	outcome = "ok"
	if sn.final(streamUpdate{
		Words:          res.Words,
		Text:           m.words(res.Words),
		Frames:         res.Stats.Frames,
		Final:          true,
		Cost:           float64(res.Cost),
		Rescues:        res.Stats.Rescues,
		SearchFailures: res.Stats.SearchFailures,
		Degraded:       level,
	}) != nil {
		outcome = "canceled"
		s.streamsAborted.Inc()
	}
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
	m, releaseModel, ok := s.resolveModel(w, r.URL.Query().Get("model"))
	if !ok {
		return
	}
	defer releaseModel()
	test := m.testSet()
	if test == nil {
		s.fail(w, http.StatusNotFound, "no_testset",
			fmt.Sprintf("model %q was loaded from a bundle and carries no test set", m.name))
		return
	}
	if q := r.URL.Query().Get("utt"); q != "" {
		i, err := strconv.Atoi(q)
		if err != nil || i < 0 || i >= len(test) {
			s.fail(w, http.StatusBadRequest, "bad_utt", fmt.Sprintf("utt must be in [0,%d)", len(test)))
			return
		}
		u := test[i]
		writeJSON(w, http.StatusOK, testsetItem{
			Utt: i, Ref: m.words(u.Words), Frames: len(u.Frames), Data: u.Frames,
		})
		return
	}
	items := make([]testsetItem, len(test))
	for i, u := range test {
		items[i] = testsetItem{Utt: i, Ref: m.words(u.Words), Frames: len(u.Frames)}
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(test), "utterances": items})
}
