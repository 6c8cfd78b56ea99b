package decoder

import (
	"fmt"

	"repro/internal/bias"
	"repro/internal/semiring"
)

// SearchPreset is one (Beam, MaxActive) search operating point. Presets are
// the knob a serving layer turns when load builds up: narrowing the beam
// and the histogram cap trades a little accuracy for a large reduction in
// per-frame work — the inverse of the rescue widening that doubles both
// when a search dies (Config.RescueWidenings).
type SearchPreset struct {
	Beam      semiring.Weight
	MaxActive int
}

// Degradation ladder floors: no preset narrows the search below these, so
// even the most degraded decode still explores a usable beam.
const (
	minDegradedBeam      = semiring.Weight(4)
	minDegradedMaxActive = 64
)

// DegradedPreset returns step level of the config's degradation ladder:
// level 0 is the configured search, and each further level halves both the
// beam and MaxActive, clamped at floors (beam 4, MaxActive 64). Levels past
// the floors return the floor preset, so any non-negative level is valid.
func (c Config) DegradedPreset(level int) SearchPreset {
	c = c.withDefaults()
	p := SearchPreset{Beam: c.Beam, MaxActive: c.MaxActive}
	for ; level > 0; level-- {
		if p.Beam/2 >= minDegradedBeam {
			p.Beam /= 2
		}
		if p.MaxActive > 0 && p.MaxActive/2 >= minDegradedMaxActive {
			p.MaxActive /= 2
		}
	}
	return p
}

// Options are a decode's per-request search options, installed on a
// decoder by SetOptions. A nil field keeps the configured search, so the
// zero Options is the decoder's Config exactly.
type Options struct {
	// Preset overrides the configured Beam and MaxActive: the degraded
	// operating point a loaded server decodes at (Config.DegradedPreset).
	// Lookup strategy, pruning mode and rescue behaviour are unchanged;
	// rescue widenings double from the preset's values.
	Preset *SearchPreset
	// Bias is a compiled per-tenant bias machine: the search runs over the
	// AM ∘ LM ∘ Bias composition, crediting the machine's bonuses on
	// cross-word arcs. The 26/26/12 composed key bounds the graphs: AM and
	// LM must each have fewer than 2^26 states and the machine at most 2^12
	// (bias.MaxStates already guarantees the latter for compiled machines).
	Bias *bias.Machine
}

// SetOptions installs o for subsequent decodes and newly created (or
// reset) Streams, replacing the options installed before. It must not be
// called while a decode is in flight on d — the pool installs a batch's
// options on a worker only while it holds that worker, and the server
// installs a request's on the decoder it checks out, before decoding. An error
// (a bias machine the composed key cannot pack) leaves d at its configured
// search with no machine.
func (d *OnTheFly) SetOptions(o Options) error {
	d.beam, d.maxActive = d.cfg.Beam, d.cfg.MaxActive
	d.bias, d.biasSlack = nil, 0
	if o.Bias != nil {
		if d.am.NumStates() > 1<<biasLMBits || d.lm.NumStates() > 1<<biasLMBits {
			return fmt.Errorf("decoder: biased decode needs AM and LM under %d states (AM %d, LM %d)",
				1<<biasLMBits, d.am.NumStates(), d.lm.NumStates())
		}
		if n := o.Bias.NumStates(); n > 1<<biasStateBits {
			return fmt.Errorf("decoder: bias machine has %d states, max %d", n, 1<<biasStateBits)
		}
		d.bias, d.biasSlack = o.Bias, o.Bias.MaxBonus()
	}
	if o.Preset != nil {
		d.beam, d.maxActive = o.Preset.Beam, o.Preset.MaxActive
	}
	return nil
}
