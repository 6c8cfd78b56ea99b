package decoder

import (
	"fmt"

	"repro/internal/semiring"
	"repro/internal/wfst"
)

// NewComposed builds the fully-composed baseline decoder, the approach of
// the accelerators the paper compares against: the session core's Viterbi
// search over one offline-composed WFST g. g takes the AM side, and the LM
// side is a pass-through: one state, start and final, with a self-loop of
// weight One for every word g emits. Every resolved LM weight is One + One,
// which is 0, so each cost keeps the bits the composed graph gives it.
func NewComposed(g *wfst.WFST, cfg Config) (*OnTheFly, error) {
	if g.Start() == wfst.NoState {
		return nil, fmt.Errorf("decoder: composed graph has no start state")
	}
	var words int32
	for s := wfst.StateID(0); int(s) < g.NumStates(); s++ {
		for _, a := range g.Arcs(s) {
			words = max(words, a.Out)
		}
	}
	b := wfst.NewBuilder()
	s := b.AddState()
	b.SetStart(s)
	b.SetFinal(s, semiring.One)
	for w := int32(1); w <= words; w++ {
		b.AddArc(s, wfst.Arc{In: w, Out: w, W: semiring.One, Next: s})
	}
	passLM := b.MustBuild()
	passLM.SortByInput()
	return NewOnTheFly(g, passLM, cfg)
}
