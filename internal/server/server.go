// Package server implements the unfold-serve HTTP frontend: a streaming
// speech-recognition service over the on-the-fly decoder with the
// observability surface a production deployment needs — Prometheus
// /metrics backed by internal/telemetry, a /healthz readiness probe
// (model loaded, worker liveness, drain state), net/http/pprof, and a
// /debug/spans ring of recent decode traces.
//
// The decode paths reuse the repo's serving machinery wholesale: batch
// recognition fans out through a pool.DecodePool, whose workers score each
// utterance's features as its search reads them; streaming recognition runs
// a decoder.Stream on a decoder from the model's free list, fed by an
// acoustic.Utterance that carries the scorer's state across chunks, so both
// routes return the same result for the same frames. Telemetry is threaded
// through every path via the nil-safe seams, so everything /metrics shows
// during a live decode — frontier sizes, back-off walks, offset-table hits —
// is the decoder's own accounting, not server-side estimation.
package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	unfold "repro"
	"repro/internal/bias"
	"repro/internal/decoder"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/telemetry"
)

// Config sizes the server. The zero value selects sensible defaults for
// every field.
type Config struct {
	// Workers is the DecodePool size for batch /v1/recognize requests
	// (defaults to GOMAXPROCS, per pool.Config).
	Workers int
	// Decoder configures the beam search for both the pool workers and the
	// per-connection stream decoders. Telemetry is overwritten by the
	// server's own wiring; leave it nil.
	Decoder decoder.Config
	// SpanCapacity is the size of the /debug/spans ring. Default 128.
	SpanCapacity int
	// DisablePprof removes the net/http/pprof handlers (for deployments
	// that must not expose profiling endpoints).
	DisablePprof bool
	// Admission bounds accepted work: execution slots, a bounded wait
	// queue, the degradation watermarks, and per-request deadline policy.
	// The zero value enables load management with the AdmissionConfig
	// defaults (MaxConcurrent tracks the pool worker count).
	Admission AdmissionConfig
	// ModelBudget caps the summed resident bytes of every registered model
	// (a swap holds both generations until the old one drains, and counts
	// both). 0 disables the budget.
	ModelBudget int64
	// Supervisor tunes the self-healing model lifecycle: quarantine
	// thresholds, reload backoff and budget, and the periodic bundle
	// re-verify. The zero value supervises with defaults (no periodic
	// ticker; CheckModels still works on demand).
	Supervisor SupervisorConfig
	// Stream tunes per-connection resilience on /v1/stream: write deadlines
	// for stalled readers, a chunk-gap watchdog, and the bounded
	// latest-wins partial-update buffer.
	Stream StreamConfig
}

// StreamConfig bounds how long a single /v1/stream connection can hold
// server resources while its client misbehaves.
type StreamConfig struct {
	// WriteTimeout bounds each response write; a client that stops reading
	// for longer aborts the stream (its decode is canceled). 0 disables.
	WriteTimeout time.Duration
	// Watchdog bounds the gap between request chunks — the stream's frame
	// clock. A client that stalls longer gets a structured mid-stream error
	// record and its decode is canceled. 0 disables (the library default;
	// unfold-serve defaults to 60s).
	Watchdog time.Duration
	// SendBuffer bounds the queue of pending partial updates per
	// connection. When a slow client lets it fill, older partials are
	// dropped (latest wins) — final updates are never dropped. Default 4.
	SendBuffer int
}

func (c Config) withDefaults() Config {
	if c.SpanCapacity <= 0 {
		c.SpanCapacity = 128
	}
	if c.Stream.SendBuffer <= 0 {
		c.Stream.SendBuffer = 4
	}
	return c
}

// Server is the HTTP recognition frontend. Construct with New, install a
// model with Load, and serve Handler. All methods are safe for concurrent
// use.
type Server struct {
	cfg    Config
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	ptel   *pool.Telemetry
	mux    *http.ServeMux
	start  time.Time

	// models is the named-model registry behind every decode route:
	// refcounted resolution, hot add/swap/drain, and the memory budget.
	models *modelRegistry

	// sup owns the self-healing lifecycle: quarantine, backoff reloads, the
	// periodic bundle re-verify. Closed (with its goroutines) by Close.
	sup *supervisor

	draining atomic.Bool

	streamsActive atomic.Int64

	// admit is the load-management gate every decode route passes through.
	admit *admitter

	// Server-level instruments.
	requestsByPath  map[string]*telemetry.Counter
	streamsGauge    *telemetry.Gauge
	streamsAborted  *telemetry.Counter
	streamsStalled  *telemetry.Counter
	partialsDropped *telemetry.Counter
	shedTotal       map[string]*telemetry.Counter
	degradedTotal   *telemetry.Counter
	biasCompiles    *telemetry.Counter
}

// New builds an unloaded server: every route is installed and /healthz
// reports "loading" until Load succeeds. The registry and tracer are
// created here and exposed via Registry/Tracer for callers that publish
// additional instruments (the CLI's accelerator export, tests).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) // mirror pool.Config's default
	}
	cfg.Admission = cfg.Admission.withDefaults(workers)
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(cfg.SpanCapacity)
	sup := newSupervisor(cfg.Supervisor)
	s := &Server{
		cfg:    cfg,
		reg:    reg,
		tracer: tracer,
		ptel:   pool.NewTelemetry(reg, tracer),
		mux:    http.NewServeMux(),
		start:  time.Now(),
		admit:  newAdmitter(cfg.Admission),
		sup:    sup,
		models: newModelRegistry(reg, cfg.ModelBudget, sup),
	}
	s.streamsGauge = reg.Gauge("unfold_server_streams_active", "Streaming decodes in flight.")
	s.streamsAborted = reg.Counter("unfold_server_streams_aborted_total", "Streams ended by cancellation or client disconnect.")
	s.streamsStalled = reg.Counter("unfold_server_stream_stalls_total", "Streams aborted by the frame-clock watchdog or a write timeout.")
	s.partialsDropped = reg.Counter("unfold_server_stream_partials_dropped_total", "Partial updates dropped because a slow client let the send buffer fill.")
	s.requestsByPath = map[string]*telemetry.Counter{}
	for _, route := range []string{"/v1/recognize", "/v1/stream", "/v1/testset", "/v1/models", "/healthz", "/metrics"} {
		s.requestsByPath[route] = reg.Counter("unfold_server_requests_total", "HTTP requests by route.", telemetry.L("route", route))
	}

	// Load-management instruments: live pressure (queue depth against its
	// capacity, current ladder level) plus the shed/degrade totals the
	// overload runbook alerts on.
	reg.GaugeFunc("unfold_server_queue_depth", "Batch requests waiting for an execution slot.",
		func() float64 { return float64(s.admit.depth()) })
	reg.GaugeFunc("unfold_server_queue_capacity", "Admission wait-queue capacity.",
		func() float64 { return float64(cfg.Admission.MaxQueue) })
	reg.GaugeFunc("unfold_server_degrade_level", "Degradation ladder level new decodes start at.",
		func() float64 { return float64(s.admit.level()) })
	s.shedTotal = map[string]*telemetry.Counter{}
	for _, route := range []string{"/v1/recognize", "/v1/stream"} {
		s.shedTotal[route] = reg.Counter("unfold_server_shed_total", "Requests shed by admission control, by route.", telemetry.L("route", route))
	}
	s.degradedTotal = reg.Counter("unfold_server_degraded_total", "Decodes run at a degraded search preset.")
	s.biasCompiles = reg.Counter("unfold_bias_requests_total", "Decode requests that carried a bias phrase list.")

	// Process-level gauges: the serving view of the paper's memory
	// footprint claim, plus liveness basics.
	reg.GaugeFunc("unfold_process_uptime_seconds", "Seconds since server start.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("unfold_process_heap_live_bytes", "Live heap bytes (runtime/metrics).",
		func() float64 { return float64(metrics.ReadMemoryFootprint().HeapLiveBytes) })
	reg.GaugeFunc("unfold_process_heap_goal_bytes", "GC heap-size target.",
		func() float64 { return float64(metrics.ReadMemoryFootprint().HeapGoalBytes) })
	reg.GaugeFunc("unfold_process_goroutines", "Live goroutines.",
		func() float64 { return float64(metrics.ReadMemoryFootprint().Goroutines) })

	// Periodic model health pass: a cheap O(1) re-verify of every resident
	// bundle, quarantining the sick ones. Off by default in the library
	// (tests drive CheckModels synchronously); unfold-serve turns it on.
	if iv := sup.cfg.HealthInterval; iv > 0 {
		sup.wg.Add(1)
		go func() {
			defer sup.wg.Done()
			t := time.NewTicker(iv)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.models.checkAll()
				case <-sup.stop:
					return
				}
			}
		}()
	}

	s.routes()
	return s
}

// CheckModels runs one synchronous health pass: every ready bundle-backed
// model is cheaply re-verified in place, and failures are quarantined (the
// reload loop starts immediately). Returns the names quarantined by this
// pass. The chaos suite drives this directly for determinism; production
// runs it on Config.Supervisor.HealthInterval.
func (s *Server) CheckModels() []string { return s.models.checkAll() }

// Close stops the supervisor — the periodic health pass and every model's
// reload loop — and waits for them. The HTTP handler stays functional
// (models keep serving); Close is about goroutine hygiene on shutdown and
// in tests.
func (s *Server) Close() { s.sup.close() }

// Registry returns the server's telemetry registry.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Tracer returns the server's span tracer.
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// Load installs a recognizer system as the default model: it builds the
// model's batch DecodePool, then marks the server ready.
// Loading under an existing name hot-swaps: new requests resolve the new
// generation immediately, the old one drains and closes in the background.
func (s *Server) Load(sys *unfold.System) error {
	return s.LoadSystem(DefaultModel, sys)
}

// LoadSystem registers a task-built system under a model name.
func (s *Server) LoadSystem(name string, sys *unfold.System) error {
	fp := sys.Footprint()
	commit, abort, err := s.models.beginLoad(name, fp.AMBytes+fp.LMBytes)
	if err != nil {
		return err
	}
	m, err := s.buildSystemModel(name, sys)
	if err != nil {
		abort(err)
		return err
	}
	commit(m)
	return nil
}

// buildSystemModel constructs (but does not install) a servable model from
// an in-memory system. It is also the rebuild path the supervisor uses to
// recover a quarantined task model: the graphs live on the heap and cannot
// rot, but a fresh decode pool sheds whatever state drove the failures.
func (s *Server) buildSystemModel(name string, sys *unfold.System) (*model, error) {
	start := time.Now()
	p, err := sys.NewDecodePool(pool.Config{
		Workers:   s.cfg.Workers,
		Decoder:   s.cfg.Decoder,
		Telemetry: s.ptel,
	})
	if err != nil {
		return nil, err
	}
	fp := sys.Footprint()
	comp := bias.NewCompiler(newWordLookup(sys.Task.Lex.Words), bias.CompilerConfig{})
	s.observeBiasCompiler(name, comp)
	return &model{
		name:        name,
		task:        sys.Task.Spec.Name,
		sys:         sys,
		pool:        p,
		biasComp:    comp,
		resident:    fp.AMBytes + fp.LMBytes,
		loadSeconds: loadSecondsSince(start),
		rebuild:     func() (*model, error) { return s.buildSystemModel(name, sys) },
	}, nil
}

// LoadBundle registers a model bundle from disk under a name — the hot-add
// path behind POST /v1/models. verify selects the fully-checked loader
// (per-section CRCs plus structural validation) over the O(1) mapped fast
// path; serve untrusted bundles verified. The budget check uses the file
// size (which IS the resident size for a mapped v3 bundle) before any load
// work happens.
func (s *Server) LoadBundle(name, path string, verify bool) error {
	estimate := int64(0)
	if st, err := os.Stat(path); err == nil && !st.IsDir() {
		estimate = st.Size()
	}
	commit, abort, err := s.models.beginLoad(name, estimate)
	if err != nil {
		return err
	}
	m, err := s.buildBundleModel(name, path, verify)
	if err != nil {
		abort(err)
		return err
	}
	commit(m)
	return nil
}

// buildBundleModel constructs (but does not install) a servable model from
// a bundle on disk. The supervisor's reload loop calls it again — with the
// remembered path and verify mode — to build the replacement generation for
// a quarantined model.
func (s *Server) buildBundleModel(name, path string, verify bool) (*model, error) {
	start := time.Now()
	load := unfold.LoadRecognizerFast
	if verify {
		load = unfold.LoadRecognizer
	}
	rec, err := load(path)
	if err != nil {
		return nil, err
	}
	p, err := pool.New(rec.AMGraph, rec.LMGraph, pool.Config{
		Workers:   s.cfg.Workers,
		Decoder:   s.cfg.Decoder,
		Telemetry: s.ptel,
	})
	if err != nil {
		rec.Close()
		return nil, err
	}
	comp := bias.NewCompiler(newWordLookup(rec.Lex.Words), bias.CompilerConfig{})
	s.observeBiasCompiler(name, comp)
	return &model{
		name:        name,
		task:        rec.TaskName,
		rec:         rec,
		pool:        p,
		biasComp:    comp,
		resident:    rec.ResidentBytes(),
		loadSeconds: loadSecondsSince(start),
		srcPath:     path,
		srcVerify:   verify,
		rebuild:     func() (*model, error) { return s.buildBundleModel(name, path, verify) },
	}, nil
}

// DrainModel removes a model from routing; its resources (including a v3
// bundle's memory mapping) are released when the last in-flight request
// over it finishes.
func (s *Server) DrainModel(name string) error { return s.models.drain(name) }

// Models snapshots the registry for tests and embedding callers.
func (s *Server) Models() []modelInfo { return s.models.list() }

// BeginDrain flips /healthz to 503 so load balancers stop routing new
// work, while in-flight requests keep running — call on SIGTERM, then
// http.Server.Shutdown to wait for the drain.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Handler returns the server's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// routes installs every endpoint.
func (s *Server) routes() {
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.Handle("/metrics", s.counted("/metrics", s.reg.Handler()))
	s.mux.Handle("/debug/spans", s.tracer.Handler())
	s.mux.Handle("/v1/recognize", s.counted("/v1/recognize", http.HandlerFunc(s.handleRecognize)))
	s.mux.Handle("/v1/stream", s.counted("/v1/stream", http.HandlerFunc(s.handleStream)))
	s.mux.Handle("/v1/testset", s.counted("/v1/testset", http.HandlerFunc(s.handleTestset)))
	s.mux.Handle("GET /v1/models", s.counted("/v1/models", http.HandlerFunc(s.handleModelsList)))
	s.mux.Handle("POST /v1/models", s.counted("/v1/models", http.HandlerFunc(s.handleModelsAdd)))
	s.mux.Handle("DELETE /v1/models/{name}", s.counted("/v1/models", http.HandlerFunc(s.handleModelsDrain)))
	if !s.cfg.DisablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// counted wraps h with the per-route request counter.
func (s *Server) counted(route string, h http.Handler) http.Handler {
	c := s.requestsByPath[route]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		h.ServeHTTP(w, r)
	})
}

// healthResponse is the /healthz JSON body. Task and the Workers block
// describe the default model (kept for probe compatibility); Models lists
// every registered model with its lifecycle state.
type healthResponse struct {
	Status        string  `json:"status"`
	Task          string  `json:"task,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	Workers       struct {
		Total int `json:"total"`
		Busy  int `json:"busy"`
	} `json:"workers"`
	StreamsActive int64       `json:"streams_active"`
	Decodes       int64       `json:"decodes_total"`
	HeapLiveBytes uint64      `json:"heap_live_bytes"`
	Models        []modelInfo `json:"models,omitempty"`
	Load          struct {
		QueueDepth    int   `json:"queue_depth"`
		QueueCapacity int   `json:"queue_capacity"`
		DegradeLevel  int   `json:"degrade_level"`
		Shed          int64 `json:"shed_total"`
	} `json:"load"`
}

// handleHealthz reports readiness: 200 only when a model bundle is loaded
// and the server is not draining. The body carries worker liveness (pool
// size and how many are mid-utterance) and headline load figures either
// way, so an unhealthy probe is still diagnosable.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.requestsByPath["/healthz"].Inc()
	var resp healthResponse
	resp.UptimeSeconds = time.Since(s.start).Seconds()
	resp.Draining = s.draining.Load()
	resp.StreamsActive = s.streamsActive.Load()
	resp.HeapLiveBytes = metrics.ReadMemoryFootprint().HeapLiveBytes
	resp.Load.QueueDepth = s.admit.depth()
	resp.Load.QueueCapacity = s.cfg.Admission.MaxQueue
	resp.Load.DegradeLevel = s.admit.level()
	for _, c := range s.shedTotal {
		resp.Load.Shed += c.Value()
	}

	resp.Models = s.models.list()
	for _, mi := range resp.Models {
		if mi.Name == DefaultModel {
			resp.Task = mi.Task
		}
	}
	if m, release, st, _ := s.models.acquire(DefaultModel); st == statusOK {
		resp.Workers.Total = m.pool.Workers()
		release()
	}
	resp.Workers.Busy = int(s.ptel.WorkersBusy.Value())
	resp.Decodes = s.ptel.Decoder.Decodes.Value() + s.ptel.Decoder.Streams.Value()

	code := http.StatusOK
	switch {
	case !s.models.anyReady():
		resp.Status = "loading"
		code = http.StatusServiceUnavailable
	case resp.Draining:
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	default:
		resp.Status = "ok"
	}
	writeJSON(w, code, resp)
}

// resolveModel acquires the request's model — the explicit name, or the
// default — and writes the structured error itself when the model is not
// servable: 404 unknown_model for a named miss, 503 not_loaded /
// model_not_ready otherwise. Callers must invoke the release exactly once
// when it is non-nil.
func (s *Server) resolveModel(w http.ResponseWriter, name string) (*model, func(), bool) {
	explicit := name != ""
	if !explicit {
		name = DefaultModel
	}
	m, release, st, detail := s.models.acquire(name)
	switch st {
	case statusOK:
		return m, release, true
	case statusUnknown:
		if !explicit {
			s.failRetry(w, http.StatusServiceUnavailable, "not_loaded", "model not loaded")
		} else {
			s.fail(w, http.StatusNotFound, "unknown_model", detail)
		}
	default:
		s.failRetry(w, http.StatusServiceUnavailable, "model_not_ready", detail)
	}
	return nil, nil, false
}

// writeJSON writes v as a JSON response with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// errorBody is the structured error reply on the decode routes: a
// human-readable message, a machine-matchable reason token, and — on shed
// responses — the backoff hint mirrored from the Retry-After header.
type errorBody struct {
	Error             string  `json:"error"`
	Reason            string  `json:"reason,omitempty"`
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
}

// fail rejects a request with a structured error and counts it under
// unfold_server_errors_total{reason}.
func (s *Server) fail(w http.ResponseWriter, code int, reason, msg string) {
	s.countError(reason)
	writeJSON(w, code, errorBody{Error: msg, Reason: reason})
}

// countError counts a rejected request (or a stream ended by its client's
// input) under unfold_server_errors_total.
func (s *Server) countError(reason string) {
	s.reg.Counter("unfold_server_errors_total", "Requests rejected, by reason.", telemetry.L("reason", reason)).Inc()
}

// failRetry is fail for retryable conditions (503 not-ready/draining, 507
// budget): the response carries a Retry-After header and mirrors the hint
// in the body, so clients and load balancers back off instead of
// hammering a model that is mid-reload.
func (s *Server) failRetry(w http.ResponseWriter, code int, reason, msg string) {
	retry := s.cfg.Admission.RetryAfter
	secs := int(retry.Seconds() + 0.999)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.countError(reason)
	writeJSON(w, code, errorBody{Error: msg, Reason: reason, RetryAfterSeconds: retry.Seconds()})
}

// shed answers an over-capacity request: 429 with a Retry-After header and
// the same hint in the body, counted per route. The hint is the configured
// constant — under a sustained overload there is no honest queue-time
// estimate, and a fixed short backoff spreads the retry wave.
func (s *Server) shed(w http.ResponseWriter, route string) {
	s.shedTotal[route].Inc()
	retry := s.cfg.Admission.RetryAfter
	secs := int(retry.Seconds() + 0.999)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, errorBody{
		Error:             "server overloaded: request queue full, retry later",
		Reason:            "overloaded",
		RetryAfterSeconds: retry.Seconds(),
	})
}

// requestBuckets spans 1ms..8s exponentially — decode latencies from a
// trivial utterance to a deadline-bounded worst case.
var requestBuckets = telemetry.ExpBuckets(0.001, 2, 14)

// observeLatency records one request's wall time under
// unfold_server_request_seconds{route,outcome}. Registration is
// get-or-create, so the series appears the first time an outcome occurs.
func (s *Server) observeLatency(route, outcome string, start time.Time) {
	s.reg.Histogram("unfold_server_request_seconds", "Request latency by route and outcome.",
		requestBuckets, telemetry.L("route", route), telemetry.L("outcome", outcome)).
		Observe(time.Since(start).Seconds())
}

// modelsAddRequest is the POST /v1/models body: register (or hot-swap) a
// bundle from disk under a name. Verify selects the fully-checked loader
// over the O(1) mapped fast path.
type modelsAddRequest struct {
	Name   string `json:"name"`
	Path   string `json:"path"`
	Verify bool   `json:"verify,omitempty"`
}

// handleModelsList answers GET /v1/models with every registered model.
func (s *Server) handleModelsList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.models.list()})
}

// handleModelsAdd hot-adds (or hot-swaps) a bundle: the new generation
// serves the next request; a replaced one drains and closes in the
// background. Budget rejections answer 507 so a deploy tool can tell
// "would not fit" from "bundle is broken" (400).
func (s *Server) handleModelsAdd(w http.ResponseWriter, r *http.Request) {
	var req modelsAddRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad_json", "bad JSON: "+err.Error())
		return
	}
	if req.Name == "" || req.Path == "" {
		s.fail(w, http.StatusBadRequest, "missing_field", "name and path are required")
		return
	}
	if err := s.LoadBundle(req.Name, req.Path, req.Verify); err != nil {
		var be *budgetError
		if errors.As(err, &be) {
			// Retryable: draining a model (or waiting for a swapped-out
			// generation to finish draining) frees budget.
			s.failRetry(w, http.StatusInsufficientStorage, "model_budget", err.Error())
			return
		}
		s.fail(w, http.StatusBadRequest, "load_failed", err.Error())
		return
	}
	for _, mi := range s.models.list() {
		if mi.Name == req.Name {
			writeJSON(w, http.StatusOK, mi)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"name": req.Name, "state": modelReady})
}

// handleModelsDrain answers DELETE /v1/models/{name}: the model stops
// resolving immediately and its resources are released once the last
// in-flight request over it finishes.
func (s *Server) handleModelsDrain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.models.drain(name); err != nil {
		s.fail(w, http.StatusNotFound, "unknown_model", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"name": name, "state": modelDraining})
}
