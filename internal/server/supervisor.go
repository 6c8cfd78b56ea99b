package server

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	unfold "repro"
	"repro/internal/flatstore"
	"repro/internal/telemetry"
)

// This file is the model supervisor: the self-healing half of the registry
// (docs/ROBUSTNESS.md). The registry owns admission and refcounts; the
// supervisor owns sickness. A model that keeps failing decodes, or whose
// bundle stops re-verifying, is quarantined — it drains traffic immediately
// while every other model keeps serving — and a per-model reload loop tries
// to bring a fresh generation up under jittered exponential backoff. A model
// that exhausts its reload budget goes permanently failed (resources
// released, entry kept visible so /healthz and /v1/models can say why).
//
// Every transition is observable: unfold_model_quarantines_total and
// unfold_model_reload_attempts_total count them, and
// unfold_model_consecutive_failures tracks the failure score live.

// SupervisorConfig tunes quarantine and recovery. The zero value enables
// supervision with the defaults below; set QuarantineThreshold negative to
// disable failure-score quarantines entirely.
type SupervisorConfig struct {
	// QuarantineThreshold is how many consecutive decode failures (failed
	// batches, faulted streams) quarantine a model. Default 3; negative disables.
	QuarantineThreshold int
	// ReloadBackoff is the delay before the first reload attempt; attempt n
	// waits ReloadBackoff<<(n-1), jittered ±25%, capped at ReloadBackoffMax.
	// Default 500ms.
	ReloadBackoff time.Duration
	// ReloadBackoffMax caps the backoff. Default 30s.
	ReloadBackoffMax time.Duration
	// ReloadBudget is how many reload attempts a quarantined model gets
	// before it is marked permanently failed. Default 6; negative means
	// unlimited.
	ReloadBudget int
	// HealthInterval is how often resident bundles are cheaply re-verified
	// (header+table CRC over the mapping — O(1), no payload reads). 0
	// disables the periodic pass; Server.CheckModels runs one on demand
	// either way. The CLI default is 10s.
	HealthInterval time.Duration
	// Seed drives the backoff jitter, so chaos tests replay identical
	// schedules. Default 1.
	Seed int64
	// ReloadHook, if set, runs before each reload attempt; returning an
	// error fails that attempt. The fault-injection harness uses it to
	// script reload outcomes.
	ReloadHook func(model string, attempt int) error
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.QuarantineThreshold == 0 {
		c.QuarantineThreshold = 3
	}
	if c.ReloadBackoff <= 0 {
		c.ReloadBackoff = 500 * time.Millisecond
	}
	if c.ReloadBackoffMax <= 0 {
		c.ReloadBackoffMax = 30 * time.Second
	}
	if c.ReloadBudget == 0 {
		c.ReloadBudget = 6
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// supervisor is the registry-side state: one per registry, shared by every
// model's reload loop.
type supervisor struct {
	cfg  SupervisorConfig
	stop chan struct{} // closed by Server.Close; ends every reload loop
	wg   sync.WaitGroup

	rngMu sync.Mutex
	rng   *rand.Rand
}

func newSupervisor(cfg SupervisorConfig) *supervisor {
	cfg = cfg.withDefaults()
	return &supervisor{
		cfg:  cfg,
		stop: make(chan struct{}),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
}

// backoff computes the jittered delay before reload attempt n (1-based):
// base<<(n-1) capped at the max, scaled by a seeded factor in [0.75, 1.25).
func (sv *supervisor) backoff(attempt int) time.Duration {
	d := sv.cfg.ReloadBackoff
	for i := 1; i < attempt && d < sv.cfg.ReloadBackoffMax; i++ {
		d *= 2
	}
	if d > sv.cfg.ReloadBackoffMax {
		d = sv.cfg.ReloadBackoffMax
	}
	sv.rngMu.Lock()
	f := 0.75 + 0.5*sv.rng.Float64()
	sv.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// close ends every reload loop and waits for them.
func (sv *supervisor) close() {
	select {
	case <-sv.stop:
	default:
		close(sv.stop)
	}
	sv.wg.Wait()
}

// Per-model supervision instruments, get-or-create so the series appear on
// the first transition.
func (g *modelRegistry) quarantineCounter(name string) *telemetry.Counter {
	return g.reg.Counter("unfold_model_quarantines_total",
		"Times the model was quarantined, by model.", telemetry.L("model", name))
}

func (g *modelRegistry) reloadCounter(name string) *telemetry.Counter {
	return g.reg.Counter("unfold_model_reload_attempts_total",
		"Reload attempts for the model, by model.", telemetry.L("model", name))
}

func (g *modelRegistry) failScoreGauge(name string) *telemetry.Gauge {
	return g.reg.Gauge("unfold_model_consecutive_failures",
		"Consecutive whole-batch decode failures, by model.", telemetry.L("model", name))
}

// noteBatch classifies one completed batch for the supervisor. A batch
// counts against the model only when every utterance failed AND at least
// one failure came from the decode itself (not a cancellation — a client
// hitting its own deadline says nothing about model health). Any decoded
// utterance resets the score; an all-canceled batch is neutral.
func (g *modelRegistry) noteBatch(m *model, errs []*unfold.DecodeError) {
	allFailed := len(errs) > 0
	modelFault := false
	for _, e := range errs {
		if e == nil {
			allFailed = false
			break
		}
		if e.Stage != unfold.StageCanceled {
			modelFault = true
		}
	}
	switch {
	case allFailed && modelFault:
		g.noteDecodeFailure(m)
	case !allFailed:
		g.noteDecodeSuccess(m)
	}
}

// noteDecodeFailure scores one decode failure against a model and
// quarantines it at the threshold. Callers classify: only batches where
// every utterance failed, at least one of them in the search itself (not a
// cancellation), and streams whose decode faulted count — a client hitting
// its own deadline is not evidence the model is sick.
func (g *modelRegistry) noteDecodeFailure(m *model) {
	if g.sup.cfg.QuarantineThreshold < 0 {
		return
	}
	m.mu.Lock()
	if m.state != modelReady {
		m.mu.Unlock()
		return
	}
	m.consecFails++
	fails := m.consecFails
	trip := fails >= g.sup.cfg.QuarantineThreshold
	if trip {
		g.quarantineLocked(m, fmt.Sprintf("%d consecutive decode failures", fails))
	}
	m.mu.Unlock()
	g.failScoreGauge(m.name).Set(float64(fails))
	if trip {
		g.quarantineCounter(m.name).Inc()
	}
}

// noteDecodeSuccess resets a model's failure score: consecutive means
// consecutive.
func (g *modelRegistry) noteDecodeSuccess(m *model) {
	m.mu.Lock()
	changed := m.consecFails != 0
	m.consecFails = 0
	m.mu.Unlock()
	if changed {
		g.failScoreGauge(m.name).Set(0)
	}
}

// quarantine moves a ready model to quarantined for the given reason (a
// health-check verdict, as opposed to the failure score) and starts its
// reload loop.
func (g *modelRegistry) quarantine(m *model, reason string) {
	m.mu.Lock()
	if m.state != modelReady {
		m.mu.Unlock()
		return
	}
	g.quarantineLocked(m, reason)
	m.mu.Unlock()
	g.quarantineCounter(m.name).Inc()
}

// quarantineLocked flips the state and spawns the reload loop. Caller holds
// m.mu and has verified state == modelReady.
func (g *modelRegistry) quarantineLocked(m *model, reason string) {
	m.state = modelQuarantined
	m.quarantines++
	m.err = reason
	g.sup.wg.Add(1)
	go g.reloadLoop(m)
}

// stillQuarantined reports whether m is still the registry's current entry
// for its name and still quarantined — a drain, delete, or competing swap
// ends the reload loop.
func (g *modelRegistry) stillQuarantined(m *model) bool {
	g.mu.Lock()
	current := g.models[m.name] == m
	g.mu.Unlock()
	if !current {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state == modelQuarantined
}

// reloadLoop tries to replace a quarantined model with a freshly-built
// generation: jittered exponential backoff between attempts, a budget after
// which the model goes permanently failed, and a pre-flight disk check so a
// bundle that is still rotten on disk fails fast without a full load.
func (g *modelRegistry) reloadLoop(m *model) {
	defer g.sup.wg.Done()
	for attempt := 1; ; attempt++ {
		if g.sup.cfg.ReloadBudget >= 0 && attempt > g.sup.cfg.ReloadBudget {
			g.failModel(m, fmt.Sprintf("reload budget exhausted after %d attempts: %s", attempt-1, m.lastErr()))
			return
		}
		select {
		case <-time.After(g.sup.backoff(attempt)):
		case <-g.sup.stop:
			return
		}
		if !g.stillQuarantined(m) {
			return
		}
		m.mu.Lock()
		m.reloadAttempts++
		m.mu.Unlock()
		g.reloadCounter(m.name).Inc()
		if err := g.tryReload(m, attempt); err != nil {
			m.mu.Lock()
			m.err = fmt.Sprintf("reload attempt %d: %v", attempt, err)
			m.mu.Unlock()
			continue
		}
		return
	}
}

// tryReload runs one reload attempt: hook, disk pre-flight, rebuild,
// install.
func (g *modelRegistry) tryReload(m *model, attempt int) error {
	if hook := g.sup.cfg.ReloadHook; hook != nil {
		if err := hook(m.name, attempt); err != nil {
			return err
		}
	}
	if m.srcPath != "" {
		// O(1) read of the on-disk header: if the file is still damaged, a
		// full load would fail anyway — skip it.
		if err := flatstore.CheckHeader(m.srcPath); err != nil {
			return fmt.Errorf("bundle still unhealthy on disk: %w", err)
		}
	}
	if m.rebuild == nil {
		return fmt.Errorf("model has no rebuild path")
	}
	nm, err := m.rebuild()
	if err != nil {
		return err
	}
	if !g.installReloaded(m, nm) {
		// Something replaced or drained the sick entry while we rebuilt;
		// the new generation is redundant.
		nm.mu.Lock()
		nm.closeLocked()
		nm.mu.Unlock()
	}
	return nil
}

// installReloaded atomically swaps a rebuilt generation in over the sick
// one, provided the sick one is still current and still quarantined. The
// old generation drains and closes as its in-flight references finish.
func (g *modelRegistry) installReloaded(old, nm *model) bool {
	g.mu.Lock()
	if g.models[old.name] != old {
		g.mu.Unlock()
		return false
	}
	old.mu.Lock()
	if old.state != modelQuarantined {
		old.mu.Unlock()
		g.mu.Unlock()
		return false
	}
	quarantines, attempts := old.quarantines, old.reloadAttempts
	old.mu.Unlock()
	nm.mu.Lock()
	nm.state = modelReady
	// The new generation inherits the sick one's history: /v1/models keeps
	// telling the whole story across heals.
	nm.quarantines = quarantines
	nm.reloadAttempts = attempts
	nm.mu.Unlock()
	g.models[old.name] = nm
	g.mu.Unlock()

	g.reg.Gauge("unfold_model_resident_bytes", "Model bytes pinned in memory, by model.",
		telemetry.L("model", nm.name)).Set(float64(nm.resident))
	g.reg.Gauge("unfold_model_load_seconds", "Wall time the model's last load took, by model.",
		telemetry.L("model", nm.name)).Set(nm.loadSeconds)
	g.failScoreGauge(nm.name).Set(0)
	g.drainModel(old)
	return true
}

// failModel is the end of the line: the entry stays visible (so operators
// can see why) but never serves again, and its resources are released as
// soon as the last in-flight reference finishes.
func (g *modelRegistry) failModel(m *model, reason string) {
	m.mu.Lock()
	if m.state == modelDraining || m.closed {
		m.mu.Unlock()
		return
	}
	m.state = modelFailed
	m.err = reason
	m.resident = 0
	if m.refs == 0 {
		m.closeLocked()
	}
	m.mu.Unlock()
	g.reg.Gauge("unfold_model_resident_bytes", "Model bytes pinned in memory, by model.",
		telemetry.L("model", m.name)).Set(0)
}

// checkAll is the health pass behind Server.CheckModels and the periodic
// ticker: every ready model backed by a bundle gets an O(1) in-place
// re-verify (header+table CRC over the mapping, read faults contained); a
// failure quarantines the model. Returns the names quarantined by this
// pass.
func (g *modelRegistry) checkAll() []string {
	g.mu.Lock()
	models := make([]*model, 0, len(g.models))
	for _, m := range g.models {
		models = append(models, m)
	}
	g.mu.Unlock()
	var sick []string
	for _, m := range models {
		m.mu.Lock()
		ready := m.state == modelReady
		rec := m.rec
		m.mu.Unlock()
		if !ready || rec == nil {
			continue
		}
		if err := rec.Recheck(false); err != nil {
			g.quarantine(m, "health check: "+err.Error())
			sick = append(sick, m.name)
		}
	}
	return sick
}

// lastErr snapshots the model's recorded error under its lock.
func (m *model) lastErr() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}
