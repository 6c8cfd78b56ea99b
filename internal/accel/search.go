package accel

import (
	"slices"
	"sort"

	"repro/internal/decoder"
	"repro/internal/semiring"
	"repro/internal/wfst"
)

// search is the one simulated Viterbi search both designs run: on-the-fly
// composition changes the memory system, not the search (Section 3). A
// design is an AM side and an LM side; a token's key packs its AM state in
// the high 32 bits and its LM state in the low 32. Every walk of a frontier
// goes in sorted key order, so a simulation repeats bit for bit.
type search struct {
	cfg     Config
	dcfg    decoder.Config
	am      amSide
	lm      lmSide
	senones int // acoustic-score vector length (drives the per-frame score DMA)
}

// amSide is the graph the State and Arc Issuers walk, laid out in memory.
type amSide interface {
	start() wfst.StateID
	// state returns the address and size of s's state record.
	state(s wfst.StateID) (addr, size uint64)
	// arcs calls visit with each of s's arcs and the bytes it occupies.
	arcs(s wfst.StateID, visit func(a wfst.Arc, addr, size uint64))
	final(s wfst.StateID) semiring.Weight
}

// lmSide applies the LM to a word: it returns the LM state the word leads
// to from s and its weight, charging its own traffic and counters. ok is
// false when the hypothesis dies (no path, or pruned against thr, given the
// cost base it arrives with).
type lmSide interface {
	resolve(m *machine, s wfst.StateID, word int32, base, thr semiring.Weight, st *decoder.Stats) (next wfst.StateID, w semiring.Weight, ok bool)
	final(s wfst.StateID) semiring.Weight
}

// UttResult is the per-utterance slice of a batch decode (Table 5 latency).
type UttResult struct {
	Words        []int32
	Cost         semiring.Weight
	ReachedFinal bool
	Frames       int
	Cycles       uint64
	Seconds      float64
}

// withDecoderDefaults mirrors decoder.Config defaulting (unexported there).
func withDecoderDefaults(c decoder.Config) decoder.Config {
	if c.Beam == 0 {
		c.Beam = 24
	}
	if c.MaxActive == 0 {
		c.MaxActive = 3000
	}
	if c.AcousticScale == 0 {
		c.AcousticScale = 0.8
	}
	return c
}

// tok/lattice mirror the software decoder's structures; the lattice models
// the compact word-lattice records the Token Issuer writes to main memory.
type tok struct {
	cost semiring.Weight
	lat  int32
}

type hwLattice struct {
	words []int32
	prev  []int32
}

func (l *hwLattice) add(word, prev int32) int32 {
	l.words = append(l.words, word)
	l.prev = append(l.prev, prev)
	return int32(len(l.words) - 1)
}

func (l *hwLattice) backtrace(idx int32) []int32 {
	var rev []int32
	for i := idx; i >= 0; i = l.prev[i] {
		rev = append(rev, l.words[i])
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// latticeEntryBytes is the size of one compact lattice record ([22]).
const latticeEntryBytes = 8

func key(am, lm wfst.StateID) uint64 { return uint64(uint32(am))<<32 | uint64(uint32(lm)) }

func unkey(k uint64) (am, lm wfst.StateID) { return wfst.StateID(k >> 32), wfst.StateID(uint32(k)) }

// sortedKeys returns active's keys in ascending order, reusing buf.
func sortedKeys(active map[uint64]tok, buf []uint64) []uint64 {
	buf = buf[:0]
	for k := range active {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// DecodeAll decodes a batch of utterances on a warm machine (caches and the
// Offset Lookup Table persist across utterances, as in hardware) and
// returns the aggregate result plus per-utterance timings.
func (s *search) DecodeAll(utts [][][]float32) (*Result, []UttResult) {
	m := newMachine(s.cfg)
	agg := &Result{}
	var per []UttResult
	for _, scores := range utts {
		startCycles := m.cycles
		words, cost, final, dec := s.decodeOne(m, scores)
		agg.Frames += len(scores)
		agg.Dec.Add(dec)
		uc := m.cycles - startCycles
		per = append(per, UttResult{
			Words: words, Cost: cost, ReachedFinal: final,
			Frames: len(scores), Cycles: uc, Seconds: float64(uc) / s.cfg.FreqHz,
		})
	}
	if n := len(per); n > 0 {
		last := per[n-1]
		agg.Words, agg.Cost, agg.ReachedFinal = last.Words, last.Cost, last.ReachedFinal
	}
	m.finalize(agg)
	return agg, per
}

func (s *search) decodeOne(m *machine, scores [][]float32) ([]int32, semiring.Weight, bool, decoder.Stats) {
	cfg := s.dcfg
	st := decoder.Stats{Frames: len(scores)}
	lat := &hwLattice{}

	cur := map[uint64]tok{key(s.am.start(), 0): {semiring.One, -1}}
	s.epsClosure(m, cur, lat, &st)

	var keys []uint64
	for f := range scores {
		m.acousticFrame(s.senones)
		st.TokensBeamCut += hwBeamPrune(cur, cfg.Beam, cfg.MaxActive)
		st.TokensExpanded += int64(len(cur))
		next := make(map[uint64]tok, 2*len(cur))
		frame := scores[f]

		// The preemptive-pruning threshold is runningBest+Beam: Zero (+Inf)
		// until a token lands.
		runningBest := semiring.Zero

		keys = sortedKeys(cur, keys)
		for _, k := range keys {
			t := cur[k]
			amS, lmS := unkey(k)
			// State Issuer: hash read + AM state record fetch + prune check.
			m.hashAccesses++
			m.compute(cyclesPerToken)
			m.fpOps++
			addr, size := s.am.state(amS)
			m.touch(m.state, StreamStates, addr, size, false)

			s.am.arcs(amS, func(a wfst.Arc, addr, size uint64) {
				if a.In == wfst.Epsilon {
					return
				}
				m.touch(m.amArc, StreamArcs, addr, size, false)
				m.compute(cyclesPerArc)
				m.acousticReads++
				m.fpOps += 2
				st.ArcsTraversed++
				c := t.cost + a.W - semiring.Weight(cfg.AcousticScale*frame[a.In])
				lmNext, latIdx := lmS, t.lat
				if a.Out != wfst.Epsilon {
					var ok bool
					if lmNext, c, latIdx, ok = s.word(m, lat, lmS, a.Out, t.lat, c, runningBest+cfg.Beam, &st); !ok {
						return
					}
				}
				s.relax(m, next, key(a.Next, lmNext), c, latIdx, &st)
				if c < runningBest {
					runningBest = c
				}
			})
		}
		s.epsClosure(m, next, lat, &st)
		if len(next) == 0 {
			return s.finish(m, cur, lat, st)
		}
		cur = next
		m.frameBarrier()
	}
	return s.finish(m, cur, lat, st)
}

// word resolves the word on an arc through the LM side and writes its
// lattice record, returning the LM state, cost and lattice index the token
// moves on with; ok is false when the LM side drops the hypothesis.
func (s *search) word(m *machine, lat *hwLattice, lmS wfst.StateID, w, prev int32, c, thr semiring.Weight, st *decoder.Stats) (wfst.StateID, semiring.Weight, int32, bool) {
	lmNext, lmW, ok := s.lm.resolve(m, lmS, w, c, thr, st)
	if !ok {
		return wfst.NoState, semiring.Zero, -1, false
	}
	idx := lat.add(w, prev)
	m.touch(m.token, StreamTokens, baseTokens+uint64(idx)*latticeEntryBytes, latticeEntryBytes, true)
	st.LatticeEntries++
	return lmNext, c + lmW, idx, true
}

// relax inserts or improves a token, charging Token Issuer work.
func (s *search) relax(m *machine, next map[uint64]tok, k uint64, c semiring.Weight, latIdx int32, st *decoder.Stats) bool {
	old, ok := next[k]
	m.hashAccesses++ // hash probe
	if !ok {
		next[k] = tok{c, latIdx}
		m.hashAccesses++ // insert
		m.noteTokenInsert()
		m.compute(cyclesPerNewToken)
		st.TokensCreated++
		return true
	}
	m.fpOps++ // compare
	if c < old.cost {
		next[k] = tok{c, latIdx}
		m.hashAccesses++ // update
		return true
	}
	return false
}

// epsClosure relaxes the AM side's non-emitting arcs (word-end loop-backs).
// A word on one is resolved through the LM side with no threshold.
func (s *search) epsClosure(m *machine, active map[uint64]tok, lat *hwLattice, st *decoder.Stats) {
	queue := sortedKeys(active, nil)
	for len(queue) > 0 {
		k := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		t, ok := active[k]
		if !ok {
			continue
		}
		amS, lmS := unkey(k)
		s.am.arcs(amS, func(a wfst.Arc, addr, size uint64) {
			if a.In != wfst.Epsilon {
				return
			}
			m.touch(m.amArc, StreamArcs, addr, size, false)
			m.compute(cyclesPerArc)
			st.EpsTraversed++
			c := t.cost + a.W
			lmNext, latIdx := lmS, t.lat
			if a.Out != wfst.Epsilon {
				var ok bool
				if lmNext, c, latIdx, ok = s.word(m, lat, lmS, a.Out, t.lat, c, semiring.Zero, st); !ok {
					return
				}
			}
			nk := key(a.Next, lmNext)
			if s.relax(m, active, nk, c, latIdx, st) {
				queue = append(queue, nk)
			}
		})
	}
}

func (s *search) finish(m *machine, active map[uint64]tok, lat *hwLattice, st decoder.Stats) ([]int32, semiring.Weight, bool, decoder.Stats) {
	bestCost := semiring.Zero
	bestLat := int32(-1)
	reached := false
	anyCost, anyLat := semiring.Zero, int32(-1)
	for _, k := range sortedKeys(active, nil) {
		t := active[k]
		amS, lmS := unkey(k)
		fa, fl := s.am.final(amS), s.lm.final(lmS)
		if !semiring.IsZero(fa) && !semiring.IsZero(fl) {
			c := t.cost + fa + fl
			if c < bestCost {
				bestCost, bestLat, reached = c, t.lat, true
			}
		}
		if t.cost < anyCost {
			anyCost, anyLat = t.cost, t.lat
		}
	}
	if !reached {
		bestCost, bestLat = anyCost, anyLat
	}
	m.frameBarrier()
	if semiring.IsZero(bestCost) {
		return nil, semiring.Zero, false, st
	}
	return lat.backtrace(bestLat), bestCost, reached, st
}

// hwBeamPrune mirrors the software decoder's pruning and returns how many
// tokens it cut. The histogram cut breaks cost ties by key, so it is
// deterministic.
func hwBeamPrune(active map[uint64]tok, beam semiring.Weight, maxActive int) int64 {
	if len(active) == 0 {
		return 0
	}
	best := semiring.Zero
	for _, t := range active {
		if t.cost < best {
			best = t.cost
		}
	}
	thr := best + beam
	var cut int64
	for k, t := range active {
		if t.cost > thr {
			delete(active, k)
			cut++
		}
	}
	if maxActive > 0 && len(active) > maxActive {
		type kt struct {
			k uint64
			c semiring.Weight
		}
		all := make([]kt, 0, len(active))
		for k, t := range active {
			all = append(all, kt{k, t.cost})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].c != all[j].c {
				return all[i].c < all[j].c
			}
			return all[i].k < all[j].k
		})
		for _, e := range all[maxActive:] {
			delete(active, e.k)
			cut++
		}
	}
	return cut
}
