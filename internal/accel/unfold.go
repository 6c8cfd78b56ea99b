package accel

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/decoder"
	"repro/internal/semiring"
	"repro/internal/wfst"
)

// Unfold simulates the paper's accelerator: on-the-fly composition over the
// compressed AM and LM datasets with the Offset Lookup Table and optional
// preemptive back-off pruning.
type Unfold struct{ search }

// NewUnfold builds the UNFOLD simulator. senones is the acoustic-score
// vector length (drives the per-frame score DMA).
func NewUnfold(cfg Config, dcfg decoder.Config, am *compress.AM, lm *compress.LM, senones int) (*Unfold, error) {
	if am == nil || lm == nil {
		return nil, fmt.Errorf("accel: UNFOLD needs compressed AM and LM")
	}
	if cfg.LMArcCache.SizeBytes == 0 {
		return nil, fmt.Errorf("accel: UNFOLD config needs an LM arc cache")
	}
	dcfg = withDecoderDefaults(dcfg)
	return &Unfold{search{cfg: cfg, dcfg: dcfg, am: packedAM{am}, lm: &packedLM{lm, dcfg}, senones: senones}}, nil
}

// packedAM is UNFOLD's AM side: 5-byte state records at baseAMStates and
// bit-packed arcs at baseAMArcs.
type packedAM struct{ am *compress.AM }

func (p packedAM) start() wfst.StateID { return p.am.Start() }

func (p packedAM) state(s wfst.StateID) (uint64, uint64) { return baseAMStates + uint64(s)*5, 5 }

func (p packedAM) arcs(s wfst.StateID, visit func(a wfst.Arc, addr, size uint64)) {
	p.am.VisitArcs(s, func(a wfst.Arc, bitOff uint64, bits uint) bool {
		addr, size := bitSpan(baseAMArcs, bitOff, bits)
		visit(a, addr, size)
		return true
	})
}

func (p packedAM) final(s wfst.StateID) semiring.Weight { return p.am.Final(s) }

// packedLM is UNFOLD's LM side: the bit-packed LM behind the Offset Lookup
// Table, with optional preemptive back-off pruning.
type packedLM struct {
	lm   *compress.LM
	dcfg decoder.Config
}

func (p *packedLM) final(s wfst.StateID) semiring.Weight { return p.lm.Final(s) }

// resolve performs the hardware LM arc fetch with back-off (Sections 3.1
// and 3.3), charging offset-table probes, binary-search fetches through the
// LM Arc Cache, and preemptive pruning checks.
func (p *packedLM) resolve(m *machine, s wfst.StateID, word int32, base, thr semiring.Weight, st *decoder.Stats) (wfst.StateID, semiring.Weight, bool) {
	st.LMFetches++
	acc := semiring.One
	for hops := 0; hops < 16; hops++ {
		// LM state record fetch (shared State Cache, Section 3.1).
		m.touch(m.state, StreamStates, baseLMStates+uint64(s)*8, 8, false)
		a, found := p.findArc(m, s, word, st)
		if found {
			return a.Next, acc + a.W, true
		}
		bo, ok := p.lm.BackoffArc(s, func(off uint64, bits uint) {
			addr, size := bitSpan(baseLMArcs, off, bits)
			m.touch(m.lmArc, StreamArcs, addr, size, false)
		})
		if !ok {
			return wfst.NoState, semiring.Zero, false
		}
		m.compute(cyclesPerBackoff)
		m.fpOps += 2
		st.BackoffHops++
		acc += bo.W
		s = bo.Next
		if p.dcfg.PreemptivePruning && base+acc > thr {
			st.PreemptivePruned++
			return wfst.NoState, semiring.Zero, false
		}
	}
	return wfst.NoState, semiring.Zero, false
}

// findArc locates word's arc at LM state s under the configured lookup
// strategy, modelling the Offset Lookup Table for LookupMemo.
func (p *packedLM) findArc(m *machine, s wfst.StateID, word int32, st *decoder.Stats) (wfst.Arc, bool) {
	probe := func(off uint64, bits uint) {
		addr, size := bitSpan(baseLMArcs, off, bits)
		m.touch(m.lmArc, StreamArcs, addr, size, false)
		m.compute(cyclesPerProbe)
		st.LMProbes++
	}
	switch p.dcfg.Lookup {
	case decoder.LookupLinear:
		return p.lm.FindArcLinear(s, word, probe)
	case decoder.LookupBinary:
		return p.lm.FindArc(s, word, probe)
	default: // LookupMemo: Offset Lookup Table in front of binary search.
		if s == 0 {
			// Unigram arcs are directly indexed; no search, no table entry.
			return p.lm.FindArc(s, word, probe)
		}
		if m.offtab != nil {
			m.compute(cyclesOffsetLookup)
			if off, hit := m.offtab.lookup(uint64(uint32(s)), uint64(uint32(word))); hit {
				st.MemoHits++
				addr, size := bitSpan(baseLMArcs, off, 45)
				m.touch(m.lmArc, StreamArcs, addr, size, false)
				m.compute(cyclesPerArc)
				return p.lm.ArcAtOffset(off), true
			}
			st.MemoMisses++
		}
		var lastOff uint64
		var probed bool
		a, ok := p.lm.FindArc(s, word, func(off uint64, bits uint) {
			lastOff, probed = off, true
			probe(off, bits)
		})
		if ok && probed && m.offtab != nil {
			m.offtab.insert(uint64(uint32(s)), uint64(uint32(word)), lastOff)
		}
		return a, ok
	}
}
