package server

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"time"
)

// AdmissionConfig bounds the work the server accepts, so a traffic burst
// larger than the decode capacity degrades gracefully — queue, then narrow
// the search, then shed with a structured 429 — instead of stacking
// goroutines until latency or memory collapses. The zero value selects
// serving-friendly defaults for every field.
type AdmissionConfig struct {
	// MaxConcurrent is how many batch decode requests may run at once, each
	// on its own goroutine and its own decoder from the model's free list.
	// Default: Config.Workers, else GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds how many admitted-but-waiting batch requests may sit
	// behind the MaxConcurrent executing ones. A request arriving with the
	// queue full is shed. Default 16.
	MaxQueue int
	// MaxStreams caps concurrent /v1/stream connections; excess streams are
	// shed immediately (streams are long-lived, so queueing them only
	// converts overload into latency). Default 32.
	MaxStreams int
	// DefaultTimeout is the decode deadline applied when a request does not
	// carry its own `timeout` field or header. 0 (the default) applies
	// none — the request is bounded by its own context only.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts; larger requests are
	// clamped, not rejected. Default 2m.
	MaxTimeout time.Duration
	// RetryAfter is the backoff hint attached to every shed response (the
	// Retry-After header and retry_after_seconds body field). Default 1s.
	RetryAfter time.Duration
	// MaxBodyBytes bounds request bodies; larger requests fail with 413.
	// On /v1/stream it bounds each NDJSON line instead. Default 64 MiB.
	MaxBodyBytes int64
	// DegradeLow and DegradeHigh are the queue-depth watermarks of the
	// pressure controller. At or below DegradeLow requests decode at full
	// quality; between the watermarks the decode steps down the
	// DegradedPreset ladder; at or above DegradeHigh it runs at the deepest
	// configured level. Defaults: MaxQueue/4 and 3*MaxQueue/4.
	DegradeLow  int
	DegradeHigh int
	// DegradeLevels is the depth of the degradation ladder (see
	// decoder.Config.DegradedPreset). Default 2; negative disables
	// degradation entirely (requests are full quality until shed).
	DegradeLevels int
}

// withDefaults fills the zero fields; workers is the resolved
// Config.Workers.
func (c AdmissionConfig) withDefaults(workers int) AdmissionConfig {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = workers
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 32
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.DegradeLevels == 0 {
		c.DegradeLevels = 2
	}
	if c.DegradeLow <= 0 {
		c.DegradeLow = c.MaxQueue / 4
	}
	if c.DegradeHigh <= 0 {
		c.DegradeHigh = 3 * c.MaxQueue / 4
	}
	if c.DegradeHigh <= c.DegradeLow {
		c.DegradeHigh = c.DegradeLow + 1
	}
	return c
}

// errShed is returned by acquire when the wait queue is full, and is the
// failure of a request past either route's capacity: a structured 429.
var errShed = &failure{code: http.StatusTooManyRequests, reason: "overloaded",
	msg: "server overloaded: request queue full, retry later", retry: true}

// admitter is the server's admission gate: a fixed set of execution slots
// with a bounded FIFO wait queue in front (batch requests), plus a hard cap
// on concurrent streams. All methods are safe for concurrent use.
type admitter struct {
	cfg     AdmissionConfig
	slots   chan struct{} // capacity MaxConcurrent; a held token = one executing request
	streams chan struct{} // capacity MaxStreams
	queued  atomic.Int64  // requests blocked waiting for a slot
}

func newAdmitter(cfg AdmissionConfig) *admitter {
	return &admitter{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.MaxConcurrent),
		streams: make(chan struct{}, cfg.MaxStreams),
	}
}

// acquire claims an execution slot, queueing behind at most MaxQueue other
// waiters. It returns the release func, errShed when the queue is full, or
// ctx.Err() when the request's deadline or client connection ends the wait
// — in every failure case the caller has nothing to release, so shed and
// expired work never holds a slot.
func (a *admitter) acquire(ctx context.Context) (func(), error) {
	select {
	case a.slots <- struct{}{}:
		return a.release, nil
	default:
	}
	if a.queued.Add(1) > int64(a.cfg.MaxQueue) {
		a.queued.Add(-1)
		return nil, errShed
	}
	defer a.queued.Add(-1)
	select {
	case a.slots <- struct{}{}:
		return a.release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (a *admitter) release() { <-a.slots }

// acquireStream claims a stream slot without queueing; ok is false when the
// server is already carrying MaxStreams connections.
func (a *admitter) acquireStream() (func(), bool) {
	select {
	case a.streams <- struct{}{}:
		return func() { <-a.streams }, true
	default:
		return nil, false
	}
}

// depth is the current wait-queue depth.
func (a *admitter) depth() int { return int(a.queued.Load()) }

// level maps the current queue depth onto the degradation ladder: 0 at or
// below the low watermark, DegradeLevels at or above the high one, linear
// (rounding up) in between. Sampled when a request starts decoding, so the
// level always reflects live pressure.
func (a *admitter) level() int {
	return a.levelAt(a.depth())
}

// levelAt is level for an explicit depth (unit-testable).
func (a *admitter) levelAt(d int) int {
	levels := a.cfg.DegradeLevels
	if levels <= 0 {
		return 0
	}
	low, high := a.cfg.DegradeLow, a.cfg.DegradeHigh
	switch {
	case d <= low:
		return 0
	case d >= high:
		return levels
	}
	span := high - low
	return ((d-low)*levels + span - 1) / span
}

// timeoutHeader carries a per-request decode deadline as a Go duration
// string (e.g. "2s", "750ms"); the JSON `timeout` field takes precedence on
// /v1/recognize.
const timeoutHeader = "X-Unfold-Timeout"

// parseTimeout resolves a request's decode deadline: the body field if set,
// else the header, else DefaultTimeout; client values are clamped to
// MaxTimeout. An unparsable or non-positive value is an error (the caller
// answers 400 rather than guessing).
func (a *admitter) parseTimeout(r *http.Request, field string) (time.Duration, error) {
	raw := field
	if raw == "" {
		raw = r.Header.Get(timeoutHeader)
	}
	if raw == "" {
		return a.cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, errors.New("timeout must be a duration like \"2s\" or \"750ms\"")
	}
	if d <= 0 {
		return 0, errors.New("timeout must be positive")
	}
	if d > a.cfg.MaxTimeout {
		d = a.cfg.MaxTimeout
	}
	return d, nil
}
