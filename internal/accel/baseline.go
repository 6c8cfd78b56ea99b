package accel

import (
	"fmt"

	"repro/internal/decoder"
	"repro/internal/semiring"
	"repro/internal/wfst"
)

// FullyComposed simulates the baseline accelerator of Yazdani et al.
// MICRO-49: the same Viterbi search as UNFOLD over one offline-composed
// WFST stored uncompressed in main memory, with a unified Arc Cache and no
// LM machinery.
type FullyComposed struct{ search }

// NewFullyComposed builds the baseline simulator over a composed graph.
func NewFullyComposed(cfg Config, dcfg decoder.Config, g *wfst.WFST, senones int) (*FullyComposed, error) {
	if g == nil || g.Start() == wfst.NoState {
		return nil, fmt.Errorf("accel: baseline needs a composed graph")
	}
	return &FullyComposed{search{cfg: cfg, dcfg: withDecoderDefaults(dcfg), am: csrGraph{g}, lm: passThroughLM{}, senones: senones}}, nil
}

// csrGraph is the baseline's AM side: the composed graph in its CSR layout,
// 8-byte state records at baseStates and 16-byte arcs at baseArcs.
type csrGraph struct{ g *wfst.WFST }

func (c csrGraph) start() wfst.StateID { return c.g.Start() }

func (c csrGraph) state(s wfst.StateID) (uint64, uint64) { return baseStates + uint64(s)*8, 8 }

func (c csrGraph) arcs(s wfst.StateID, visit func(a wfst.Arc, addr, size uint64)) {
	base := uint64(c.g.ArcIndexBase(s))
	for i, a := range c.g.Arcs(s) {
		visit(a, baseArcs+(base+uint64(i))*wfst.ArcBytes, wfst.ArcBytes)
	}
}

func (c csrGraph) final(s wfst.StateID) semiring.Weight { return c.g.Final(s) }

// passThroughLM is the baseline's LM side: the composed graph already
// carries the LM weights, so a word keeps LM state 0, weighs One and
// touches no memory. It counts no LMFetches, so the baseline's Dec counts
// the search alone.
type passThroughLM struct{}

func (passThroughLM) resolve(_ *machine, s wfst.StateID, _ int32, _, _ semiring.Weight, _ *decoder.Stats) (wfst.StateID, semiring.Weight, bool) {
	return s, semiring.One, true
}

func (passThroughLM) final(wfst.StateID) semiring.Weight { return semiring.One }
