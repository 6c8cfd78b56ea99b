package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	unfold "repro"
	"repro/internal/acoustic"
	"repro/internal/bias"
	"repro/internal/decoder"
	"repro/internal/pool"
	"repro/internal/telemetry"
	"repro/internal/wfst"
)

// DefaultModel is the registry name Load installs under; requests that
// carry no model selector resolve to it.
const DefaultModel = "default"

// Model lifecycle states as reported by /healthz and /v1/models.
const (
	modelLoading = "loading"
	modelReady   = "ready"
	// modelQuarantined drains traffic from a sick model (failed re-verify or
	// too many consecutive decode failures) while its reload loop tries to
	// bring a fresh generation up; other models keep serving.
	modelQuarantined = "quarantined"
	modelDraining    = "draining"
	// modelFailed is terminal: the reload budget is exhausted (or a load
	// never succeeded). The entry stays visible so /healthz can say why, but
	// its resources are released.
	modelFailed = "failed"
)

// model is one servable entry: a task-built System or a bundle-loaded
// Recognizer, plus the per-model serving machinery (decode pool, bias
// compiler). Everything except the lifecycle fields is immutable once the
// model reaches the ready state.
type model struct {
	name string
	task string

	sys *unfold.System     // task path; nil for bundle loads
	rec *unfold.Recognizer // bundle path; nil for task loads

	pool *pool.DecodePool
	// biasComp compiles per-tenant phrase lists into bias machines over
	// this model's lexicon, with the tenant-keyed LRU in front so a stable
	// phrase list compiles once per profile edit, not once per request.
	biasComp *bias.Compiler

	resident    int64
	loadSeconds float64

	// Reload provenance: where the bundle came from and how to build a
	// replacement generation, used by the supervisor's reload loop. rebuild
	// returns a fresh, uninstalled model (never touches the registry).
	srcPath   string
	srcVerify bool
	rebuild   func() (*model, error)

	// mu guards the lifecycle below. refs counts in-flight requests
	// reading through the model's graphs; a draining model is closed (and
	// its bundle mapping released) only when the last one finishes.
	mu     sync.Mutex
	state  string
	refs   int
	closed bool // resources released (guards double-close; orthogonal to state for failed models)
	err    string

	// Supervision score-keeping (see supervisor.go).
	consecFails    int
	reloadAttempts int
	quarantines    int

	// streamDecs is the free list of /v1/stream decoders: a stream checks
	// one out for its life and puts it back, so the next stream starts with
	// a warm offset table instead of building a decoder of its own.
	streamMu   sync.Mutex
	streamDecs []*decoder.OnTheFly
}

// takeStreamDecoder checks a decoder out of the stream free list, or builds
// one with cfg when the list is empty. A recycled decoder comes back at its
// configured operating point with no bias machine, as the pool's workers
// are reset per batch: the previous stream's preset and tenant do not
// carry over.
func (m *model) takeStreamDecoder(cfg decoder.Config) (*decoder.OnTheFly, error) {
	m.streamMu.Lock()
	if n := len(m.streamDecs); n > 0 {
		d := m.streamDecs[n-1]
		m.streamDecs = m.streamDecs[:n-1]
		m.streamMu.Unlock()
		d.ClearSearchPreset()
		d.ClearBias()
		return d, nil
	}
	m.streamMu.Unlock()
	return decoder.NewOnTheFly(m.amGraph(), m.lmGraph(), cfg)
}

// putStreamDecoder returns a decoder takeStreamDecoder handed out.
func (m *model) putStreamDecoder(d *decoder.OnTheFly) {
	m.streamMu.Lock()
	m.streamDecs = append(m.streamDecs, d)
	m.streamMu.Unlock()
}

func (m *model) amGraph() *wfst.WFST {
	if m.sys != nil {
		return m.sys.Task.AM.G
	}
	return m.rec.AMGraph
}

func (m *model) lmGraph() *wfst.WFST {
	if m.sys != nil {
		return m.sys.Task.LMGraph.G
	}
	return m.rec.LMGraph
}

// dim is the acoustic feature dimension requests are validated against.
func (m *model) dim() int {
	if m.sys != nil {
		return m.sys.Task.Senones.Dim
	}
	return m.rec.Senones.Dim
}

// scorer exposes the model's acoustic scorer. Requests score through it
// concurrently (see acoustic.Scorer).
func (m *model) scorer() acoustic.Scorer {
	if m.sys != nil {
		return m.sys.Task.Scorer
	}
	return m.rec.Scorer
}

// words renders word IDs as a space-joined surface string.
func (m *model) words(ids []int32) string {
	if m.sys != nil {
		return strings.Join(m.sys.Words(ids), " ")
	}
	return strings.Join(m.rec.Words(ids), " ")
}

// testSet returns the model's held-out utterances; bundle-loaded models
// carry none (a v3 bundle stores models, not evaluation data).
func (m *model) testSet() []unfold.Utterance {
	if m.sys != nil {
		return m.sys.TestSet()
	}
	return nil
}

// closeLocked releases the model's resources. Called with m.mu held, with
// refs == 0; the closed flag guards re-entry. Failed models keep their
// state (the entry stays diagnosable); everything else becomes "closed".
func (m *model) closeLocked() {
	if m.closed {
		return
	}
	m.closed = true
	if m.state != modelFailed {
		m.state = "closed"
	}
	if m.rec != nil {
		m.rec.Close()
	}
}

// budgetError marks a load rejected by the memory budget, so the HTTP
// layer can answer 507 instead of a generic load failure.
type budgetError struct{ msg string }

func (e *budgetError) Error() string { return e.msg }

// modelStatus classifies a failed acquire.
type modelStatus int

const (
	statusOK modelStatus = iota
	statusUnknown
	statusNotReady // loading, draining, or failed
)

// modelRegistry is the named-model table behind the serving routes. It
// owns admission to models (refcounted acquire/release), hot add and swap
// (install replaces atomically; the old generation drains and closes in
// the background), drain, and the memory budget.
type modelRegistry struct {
	reg    *telemetry.Registry
	budget int64 // resident-bytes budget across all models; 0 = unlimited
	sup    *supervisor

	mu     sync.Mutex
	models map[string]*model
}

func newModelRegistry(reg *telemetry.Registry, budget int64, sup *supervisor) *modelRegistry {
	return &modelRegistry{reg: reg, budget: budget, sup: sup, models: make(map[string]*model)}
}

// acquire resolves name to a ready model and takes a reference on it; the
// caller must invoke the returned release exactly once after its last read
// through the model's graphs. The second return is nil when the model is
// not servable, with the status and a human-readable detail.
func (g *modelRegistry) acquire(name string) (*model, func(), modelStatus, string) {
	g.mu.Lock()
	m, ok := g.models[name]
	g.mu.Unlock()
	if !ok {
		return nil, nil, statusUnknown, fmt.Sprintf("unknown model %q", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != modelReady {
		detail := fmt.Sprintf("model %q is %s", name, m.state)
		if m.err != "" {
			detail += ": " + m.err
		}
		return nil, nil, statusNotReady, detail
	}
	m.refs++
	var once sync.Once
	return m, func() { once.Do(func() { g.release(m) }) }, statusOK, ""
}

// release drops one reference; the last release on a draining model closes
// it and removes it from the table (unless a swap already replaced it), and
// the last release on a failed model releases its resources while keeping
// the entry visible.
func (g *modelRegistry) release(m *model) {
	m.mu.Lock()
	m.refs--
	shouldClose := m.refs == 0 && !m.closed && (m.state == modelDraining || m.state == modelFailed)
	remove := false
	if shouldClose {
		remove = m.state == modelDraining
		m.closeLocked()
	}
	m.mu.Unlock()
	if remove {
		g.remove(m)
	}
}

// remove deletes m from the table if it is still the current entry for its
// name (a swap may have replaced it already) and zeroes its gauges.
func (g *modelRegistry) remove(m *model) {
	g.mu.Lock()
	if g.models[m.name] == m {
		delete(g.models, m.name)
	}
	g.mu.Unlock()
	g.reg.Gauge("unfold_model_resident_bytes", "Model bytes pinned in memory, by model.",
		telemetry.L("model", m.name)).Set(0)
}

// beginLoad installs a loading placeholder so /healthz and /v1/models show
// the model while its bundle is read, and enforces the memory budget using
// the caller's size estimate. The returned commit promotes the entry to
// ready (publishing its telemetry); abort marks it failed with the error.
func (g *modelRegistry) beginLoad(name string, estimate int64) (commit func(*model), abort func(error), err error) {
	g.mu.Lock()
	if cur, ok := g.models[name]; ok {
		cur.mu.Lock()
		state := cur.state
		cur.mu.Unlock()
		if state == modelLoading {
			g.mu.Unlock()
			return nil, nil, fmt.Errorf("model %q is already loading", name)
		}
	}
	if g.budget > 0 {
		// A swap holds both generations resident until the old one drains,
		// so the outgoing entry still counts against the budget.
		total := estimate
		for _, m := range g.models {
			total += m.resident
		}
		if total > g.budget {
			g.mu.Unlock()
			return nil, nil, &budgetError{fmt.Sprintf("loading %q (%d bytes) would exceed the model budget (%d of %d bytes in use)",
				name, estimate, total-estimate, g.budget)}
		}
	}
	prev := g.models[name]
	placeholder := &model{name: name, state: modelLoading, resident: estimate}
	g.models[name] = placeholder
	g.mu.Unlock()

	commit = func(m *model) {
		m.state = modelReady
		g.mu.Lock()
		g.models[name] = m
		g.mu.Unlock()
		g.reg.Gauge("unfold_model_resident_bytes", "Model bytes pinned in memory, by model.",
			telemetry.L("model", name)).Set(float64(m.resident))
		g.reg.Gauge("unfold_model_load_seconds", "Wall time the model's last load took, by model.",
			telemetry.L("model", name)).Set(m.loadSeconds)
		if prev != nil {
			g.drainModel(prev)
		}
	}
	abort = func(loadErr error) {
		placeholder.mu.Lock()
		placeholder.state = modelFailed
		placeholder.resident = 0
		placeholder.err = loadErr.Error()
		placeholder.mu.Unlock()
	}
	return commit, abort, nil
}

// drain marks the named model draining: it stops resolving for new
// requests immediately and is closed (bundle mapping released) when the
// last in-flight request finishes. Draining the only ready model flips
// /healthz back to "loading".
func (g *modelRegistry) drain(name string) error {
	g.mu.Lock()
	m, ok := g.models[name]
	g.mu.Unlock()
	if !ok {
		return fmt.Errorf("unknown model %q", name)
	}
	g.drainModel(m)
	return nil
}

func (g *modelRegistry) drainModel(m *model) {
	m.mu.Lock()
	if m.state == modelDraining || m.state == "closed" {
		m.mu.Unlock()
		return
	}
	if m.closed {
		// A failed model whose resources are already gone: draining it just
		// drops the entry from the table.
		m.state = modelDraining
		m.mu.Unlock()
		g.remove(m)
		return
	}
	m.state = modelDraining
	idle := m.refs == 0
	if idle {
		m.closeLocked()
	}
	m.mu.Unlock()
	if idle {
		g.remove(m)
	}
}

// anyReady reports whether at least one model is servable.
func (g *modelRegistry) anyReady() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.models {
		m.mu.Lock()
		ready := m.state == modelReady
		m.mu.Unlock()
		if ready {
			return true
		}
	}
	return false
}

// empty reports whether no model was ever installed (distinguishes the
// never-loaded 503 from an unknown-model 404).
func (g *modelRegistry) empty() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.models) == 0
}

// modelInfo is one row of /v1/models and the per-model /healthz map.
type modelInfo struct {
	Name          string  `json:"name"`
	State         string  `json:"state"`
	Task          string  `json:"task,omitempty"`
	ResidentBytes int64   `json:"resident_bytes"`
	LoadSeconds   float64 `json:"load_seconds,omitempty"`
	Mapped        bool    `json:"mapped,omitempty"`
	Error         string  `json:"error,omitempty"`
	// Supervision counters: how often this entry has been quarantined, how
	// many reload attempts its loops have made, and the live consecutive
	// decode-failure score.
	Quarantines         int `json:"quarantines,omitempty"`
	ReloadAttempts      int `json:"reload_attempts,omitempty"`
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
}

// list snapshots every model sorted by name.
func (g *modelRegistry) list() []modelInfo {
	g.mu.Lock()
	models := make([]*model, 0, len(g.models))
	for _, m := range g.models {
		models = append(models, m)
	}
	g.mu.Unlock()
	sort.Slice(models, func(i, j int) bool { return models[i].name < models[j].name })
	out := make([]modelInfo, len(models))
	for i, m := range models {
		m.mu.Lock()
		out[i] = modelInfo{
			Name:                m.name,
			State:               m.state,
			Task:                m.task,
			ResidentBytes:       m.resident,
			LoadSeconds:         m.loadSeconds,
			Mapped:              m.rec != nil && !m.closed && m.rec.Mapped(),
			Error:               m.err,
			Quarantines:         m.quarantines,
			ReloadAttempts:      m.reloadAttempts,
			ConsecutiveFailures: m.consecFails,
		}
		m.mu.Unlock()
	}
	return out
}

// loadSecondsSince rounds a load duration for display.
func loadSecondsSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Second)
}
