// Command unfold-serve runs the streaming recognition server: it builds a
// synthetic benchmark task, loads it into an HTTP frontend, and serves
// batch and streaming recognition with full observability — Prometheus
// /metrics, /healthz readiness, net/http/pprof, and a /debug/spans ring of
// recent decode traces. SIGTERM/SIGINT drain gracefully: the health probe
// flips to 503 immediately, in-flight decodes finish, then the process
// exits.
//
// Load management is on by default: batch requests queue behind a bounded
// wait queue (-max-queue) and shed with 429 + Retry-After past it, decode
// quality steps down between the -degrade-low/-degrade-high watermarks,
// and per-request deadlines (the `timeout` body field or X-Unfold-Timeout
// header) free their slot the moment they expire. See docs/LOAD.md for
// capacity planning and tuning.
//
// The server can serve several models at once (docs/MODEL_STORE.md):
// -bundle name=path preloads a v3 flat bundle under a name (repeatable),
// -model-budget caps the summed resident bytes, and models can be hot
// added, swapped and drained at runtime through /v1/models. Requests pick
// a model with the `model` body field or ?model= parameter; without one
// they use the model named "default" (the -task system, or a -bundle
// loaded under that name when running with -task none).
//
// Serving is supervised (docs/ROBUSTNESS.md): a model that keeps failing
// decodes (-quarantine-threshold) or fails its periodic integrity check
// (-health-interval) is quarantined — its traffic answers structured 503s
// while every other model keeps serving — and reloaded from disk under
// jittered exponential backoff (-reload-backoff). Streams carry watchdogs:
// a client that stops sending frames (-stream-watchdog) or stops reading
// results (-stream-write-timeout) has its decode canceled and slot freed.
//
// Examples:
//
//	unfold-serve -task voxforge -addr :8080
//	unfold-serve -task none -bundle vox=/models/vox.ufb3 -model-budget 2147483648
//	curl localhost:8080/healthz
//	curl localhost:8080/metrics | grep unfold_decoder
//	curl -s -X POST -d '{"name":"new","path":"/models/new.ufb3"}' localhost:8080/v1/models
//	curl -s localhost:8080/v1/testset?utt=0 |
//	  jq '{utterances:[{frames:.data}]}' |
//	  curl -s -d @- localhost:8080/v1/recognize
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/decoder"
	"repro/internal/server"
	"repro/internal/task"

	unfold "repro"
)

// bundleList collects repeated -bundle name=path flags.
type bundleList []struct{ name, path string }

func (b *bundleList) String() string {
	var parts []string
	for _, e := range *b {
		parts = append(parts, e.name+"="+e.path)
	}
	return strings.Join(parts, ",")
}

func (b *bundleList) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*b = append(*b, struct{ name, path string }{name, path})
	return nil
}

func specFor(name string, scale float64) (task.Spec, error) {
	switch strings.ToLower(name) {
	case "tedlium":
		return unfold.KaldiTedlium(scale), nil
	case "librispeech":
		return unfold.KaldiLibrispeech(scale), nil
	case "voxforge":
		return unfold.KaldiVoxforge(scale), nil
	case "eesen":
		return unfold.EesenTedlium(scale), nil
	default:
		return task.Spec{}, fmt.Errorf("unknown task %q (tedlium, librispeech, voxforge, eesen)", name)
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	taskName := flag.String("task", "voxforge", "task: tedlium, librispeech, voxforge, eesen, or none (bundles only)")
	scale := flag.Float64("scale", 1.0, "task scale factor")
	var bundles bundleList
	flag.Var(&bundles, "bundle", "preload a v3 flat bundle as name=path (repeatable)")
	verifyBundles := flag.Bool("verify-bundles", false, "verify per-section checksums when loading bundles")
	modelBudget := flag.Int64("model-budget", 0, "cap on summed resident model bytes (0 = unlimited)")
	workers := flag.Int("workers", 0, "concurrent batch decodes when -max-concurrent is 0 (0 = GOMAXPROCS)")
	rescue := flag.Int("rescue", 2, "search-failure rescue widenings per frame")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
	noPprof := flag.Bool("no-pprof", false, "disable the /debug/pprof endpoints")
	maxConcurrent := flag.Int("max-concurrent", 0, "concurrent batch decodes (0 = -workers)")
	maxQueue := flag.Int("max-queue", 0, "queued batch requests before shedding (0 = default 16)")
	maxStreams := flag.Int("max-streams", 0, "concurrent streams before shedding (0 = default 32)")
	defaultTimeout := flag.Duration("default-timeout", 0, "decode deadline for requests without their own (0 = none)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on client-requested timeouts (0 = default 2m)")
	retryAfter := flag.Duration("retry-after", 0, "backoff hint on shed responses (0 = default 1s)")
	degradeLow := flag.Int("degrade-low", 0, "queue depth where search degradation starts (0 = max-queue/4)")
	degradeHigh := flag.Int("degrade-high", 0, "queue depth of deepest degradation (0 = 3*max-queue/4)")
	degradeLevels := flag.Int("degrade-levels", 0, "degradation ladder depth (0 = default 2, negative disables)")
	quarantineThreshold := flag.Int("quarantine-threshold", 3, "consecutive decode failures before a model is quarantined (negative disables)")
	reloadBackoff := flag.Duration("reload-backoff", 500*time.Millisecond, "base delay between quarantine reload attempts (doubles, jittered)")
	healthInterval := flag.Duration("health-interval", 10*time.Second, "period of the resident-model integrity re-check (0 disables)")
	streamWriteTimeout := flag.Duration("stream-write-timeout", 10*time.Second, "per-write deadline on stream results; a client that stops reading is cut (0 disables)")
	streamWatchdog := flag.Duration("stream-watchdog", 60*time.Second, "max wait for the next stream chunk before the decode is canceled (0 disables)")
	flag.Parse()

	buildTask := !strings.EqualFold(*taskName, "none")
	var spec task.Spec
	if buildTask {
		var err error
		spec, err = specFor(*taskName, *scale)
		if err != nil {
			fail(err)
		}
	} else if len(bundles) == 0 {
		fail(errors.New("-task none requires at least one -bundle name=path"))
	}

	srv := server.New(server.Config{
		Workers:      *workers,
		Decoder:      decoder.Config{PreemptivePruning: true, RescueWidenings: *rescue},
		DisablePprof: *noPprof,
		ModelBudget:  *modelBudget,
		Admission: server.AdmissionConfig{
			MaxConcurrent:  *maxConcurrent,
			MaxQueue:       *maxQueue,
			MaxStreams:     *maxStreams,
			DefaultTimeout: *defaultTimeout,
			MaxTimeout:     *maxTimeout,
			RetryAfter:     *retryAfter,
			DegradeLow:     *degradeLow,
			DegradeHigh:    *degradeHigh,
			DegradeLevels:  *degradeLevels,
		},
		Supervisor: server.SupervisorConfig{
			QuarantineThreshold: *quarantineThreshold,
			ReloadBackoff:       *reloadBackoff,
			HealthInterval:      *healthInterval,
		},
		Stream: server.StreamConfig{
			WriteTimeout: *streamWriteTimeout,
			Watchdog:     *streamWatchdog,
		},
	})

	// Listen before the model is ready: /healthz answers "loading" (503)
	// during construction, exactly what an orchestrator's readiness probe
	// wants to see.
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	if buildTask {
		fmt.Printf("unfold-serve: listening on %s (loading task %s)\n", *addr, spec.Name)
		sys, err := unfold.NewSystem(spec)
		if err != nil {
			fail(err)
		}
		if err := srv.Load(sys); err != nil {
			fail(err)
		}
		fp := sys.Footprint()
		fmt.Printf("unfold-serve: ready — task %s, datasets AM %.2f KB + LM %.2f KB, %d test utterances\n",
			spec.Name, float64(fp.AMBytes)/1024, float64(fp.LMBytes)/1024, len(sys.TestSet()))
	} else {
		fmt.Printf("unfold-serve: listening on %s (bundle-only mode)\n", *addr)
	}
	for _, b := range bundles {
		if err := srv.LoadBundle(b.name, b.path, *verifyBundles); err != nil {
			fail(fmt.Errorf("bundle %s: %w", b.name, err))
		}
	}
	for _, m := range srv.Models() {
		if m.Name == server.DefaultModel && buildTask {
			continue
		}
		fmt.Printf("unfold-serve: model %s ready — %.2f MB resident (mapped=%v), loaded in %.1f ms\n",
			m.Name, float64(m.ResidentBytes)/(1024*1024), m.Mapped, m.LoadSeconds*1000)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errCh:
		fail(err)
	case <-ctx.Done():
	}

	// Graceful drain: readiness flips to 503 so load balancers route away,
	// then Shutdown waits for in-flight batch decodes and streams (each
	// stream's request context is canceled when the drain deadline passes,
	// which the per-frame cancellation checks turn into a prompt abort).
	fmt.Println("unfold-serve: draining...")
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "unfold-serve: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("unfold-serve: drained, bye")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "unfold-serve:", err)
	os.Exit(1)
}
