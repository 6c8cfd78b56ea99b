package server

import (
	"fmt"
	"net/http"

	"repro/internal/bias"
	"repro/internal/decoder"
	"repro/internal/telemetry"
)

// DefaultBiasBonus is the per-word bonus applied when a bias block omits
// (or zeroes) the bonus field — strong enough to promote a competitive
// phrase without drowning the acoustic evidence on the repo's tasks.
const DefaultBiasBonus = 4.0

// biasRequest is the optional bias block on /v1/recognize and the first
// /v1/stream line: a tenant identity plus that tenant's phrase list. The
// phrases compile (through the model's cached compiler) into a bias
// machine, and the whole decode runs as AM ∘ LM ∘ Bias. An omitted block,
// or one with no phrases, decodes exactly as before the bias feature
// existed.
type biasRequest struct {
	// Tenant keys the compiled-machine cache and its per-tenant counters.
	// Empty is allowed (the machine still applies).
	Tenant string `json:"tenant,omitempty"`
	// Phrases are surface-form word sequences to boost ("play back",
	// "acme support line"). Words outside the model's lexicon are skipped.
	Phrases []string `json:"phrases"`
	// Bonus is the per-matched-word score credit (tropical weight
	// subtracted per word, so larger favors the phrase more strongly).
	// Omitted or 0 selects DefaultBiasBonus; negative is rejected.
	Bonus float32 `json:"bonus,omitempty"`
}

// newWordLookup builds a bias.Lookup over an ID-indexed word list (first
// occurrence wins for duplicate surface forms).
func newWordLookup(words []string) bias.Lookup {
	idx := make(map[string]int32, len(words))
	for i, w := range words {
		if _, ok := idx[w]; !ok {
			idx[w] = int32(i)
		}
	}
	return func(word string) (int32, bool) {
		id, ok := idx[word]
		return id, ok
	}
}

// decodeOptions builds a request's search options, which both routes
// install the same way (takeDecoder, on the decoder the request checks out
// of its model's free list): no bias block, or one with no phrases, is the zero Options —
// the byte-identical unbiased search; otherwise the machine comes from the
// model's compiler cache and the tenant's compile-cache counters are
// published. A compile failure is a client error (bad phrase list),
// reported as a 400 by the caller. The preset is degrade's, once the
// request holds its slot.
func (s *Server) decodeOptions(m *model, b *biasRequest) (decoder.Options, error) {
	if b == nil || len(b.Phrases) == 0 {
		return decoder.Options{}, nil
	}
	bonus := b.Bonus
	if bonus == 0 {
		bonus = DefaultBiasBonus
	}
	machine, err := m.biasComp.Get(b.Tenant, b.Phrases, bonus)
	if err != nil {
		return decoder.Options{}, err
	}
	s.biasCompiles.Inc()
	s.observeBiasTenant(m, b.Tenant)
	return decoder.Options{Bias: machine}, nil
}

// degrade samples the pressure controller once: past level 0 it sets the
// level's degraded preset in o, the operating point of the whole request,
// and counts the degraded request. It returns the level.
func (s *Server) degrade(o *decoder.Options) int {
	level := s.admit.level()
	if level > 0 {
		p := s.cfg.Decoder.DegradedPreset(level)
		o.Preset = &p
		s.degradedTotal.Inc()
	}
	return level
}

// observeBiasCompiler publishes a model's compiled-machine cache counters
// under unfold_bias_compile_cache_*{model}. Called at model build; a
// hot-swap re-registers the callbacks against the new generation's
// compiler.
func (s *Server) observeBiasCompiler(name string, comp *bias.Compiler) {
	ml := telemetry.L("model", name)
	s.reg.CounterFunc("unfold_bias_compile_cache_hits_total", "Bias compiler cache hits, by model.",
		func() float64 { return float64(comp.Stats().Hits) }, ml)
	s.reg.CounterFunc("unfold_bias_compile_cache_misses_total", "Bias compiler cache misses (fresh compiles), by model.",
		func() float64 { return float64(comp.Stats().Misses) }, ml)
	s.reg.CounterFunc("unfold_bias_compile_cache_evictions_total", "Compiled bias machines evicted from the cache, by model.",
		func() float64 { return float64(comp.Stats().Evictions) }, ml)
	s.reg.GaugeFunc("unfold_bias_compile_cache_entries", "Compiled bias machines resident in the cache, by model.",
		func() float64 { return float64(comp.Stats().Entries) }, ml)
}

// observeBiasTenant lazily registers one tenant's compile-cache hit/miss
// callbacks the first time that tenant sends a bias block. Cardinality is
// bounded by the compiler's own TenantStats cap: tenants past it aggregate
// under the bias.OverflowTenant series instead of growing /metrics without
// bound. Registration is idempotent (the registry dedups by name+labels).
func (s *Server) observeBiasTenant(m *model, tenant string) {
	comp := m.biasComp
	if _, tracked := comp.TenantCountersFor(tenant); !tracked {
		tenant = bias.OverflowTenant
	}
	name := tenant
	ml, tl := telemetry.L("model", m.name), telemetry.L("tenant", tenant)
	s.reg.CounterFunc("unfold_bias_tenant_compile_hits_total", "Bias compiler cache hits, by model and tenant.",
		func() float64 { tc, _ := comp.TenantCountersFor(name); return float64(tc.Hits) }, ml, tl)
	s.reg.CounterFunc("unfold_bias_tenant_compile_misses_total", "Bias compiler cache misses, by model and tenant.",
		func() float64 { tc, _ := comp.TenantCountersFor(name); return float64(tc.Misses) }, ml, tl)
}

// badBias is the bias stage's failure: a phrase list that does not compile,
// or a machine that does not compose with the model's graphs.
func badBias(err error) *failure {
	return fail(http.StatusBadRequest, "bad_bias", fmt.Sprintf("bias block rejected: %v", err))
}
