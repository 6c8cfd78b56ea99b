package decoder

import (
	"sort"

	"repro/internal/semiring"
	"repro/internal/wfst"
)

// This file retains the pre-tokenStore frontier: a map[uint64]token per
// frame plus an explicit insertion-order key list. It is the differential
// oracle for the zero-allocation hot path — DecodeReference must produce
// byte-identical hypotheses, costs, lattices and Stats to
// Decode, which the differential harness in differential_test.go asserts
// over randomized tasks, and TestSearchKernelRatio and
// BenchmarkFrontierDecode use it as the "before" implementation when
// measuring the speed and allocation win. It allocates exactly
// the way the seed decoder did: fresh maps, key slices and closure queues
// every frame. The map beamPrune and relax at the end of the file are its
// frontier operations, and tokenstore_test.go's oracle for the store's.

// refFrontier is the retained map-based active-token set. The order slice
// records insertion order, which is the iteration order the tokenStore uses
// — keeping the two implementations step-for-step identical, including
// preemptive-pruning thresholds, lattice indices and tie resolution.
type refFrontier struct {
	m     map[uint64]token
	order []uint64
}

func newRefFrontier(capHint int) *refFrontier {
	return &refFrontier{m: make(map[uint64]token, capHint)}
}

// relax is the map-frontier token update: keep the better cost, recording
// insertion order for new states.
func (r *refFrontier) relax(key uint64, cost semiring.Weight, lat int32) (created, improved bool) {
	old, ok := r.m[key]
	if !ok {
		r.m[key] = token{cost, lat}
		r.order = append(r.order, key)
		return true, true
	}
	if cost < old.cost {
		r.m[key] = token{cost, lat}
		return false, true
	}
	return false, false
}

// prune applies the shared map beamPrune, then drops deleted keys from the
// order list (preserving the survivors' insertion order, exactly as the
// tokenStore compaction does).
func (r *refFrontier) prune(beam semiring.Weight, maxActive int) int64 {
	_, cut := beamPrune(r.m, beam, maxActive)
	n := 0
	for _, k := range r.order {
		if _, ok := r.m[k]; ok {
			r.order[n] = k
			n++
		}
	}
	r.order = r.order[:n]
	return cut
}

// snapshot deep-copies the frontier (the rescue path's copyTokens).
func (r *refFrontier) snapshot() *refFrontier {
	out := newRefFrontier(len(r.m))
	for _, k := range r.order {
		out.m[k] = r.m[k]
	}
	out.order = append([]uint64(nil), r.order...)
	return out
}

// hookRef reports the frontier to the differential frame hook in iteration
// order, materializing the token slice the way the store exposes it.
func (d *OnTheFly) hookRef(frame int, r *refFrontier) {
	if d.frameHook == nil {
		return
	}
	toks := make([]token, len(r.order))
	for i, k := range r.order {
		toks[i] = r.m[k]
	}
	d.frameHook(frame, r.order, toks)
}

// DecodeReference runs the retained map-frontier implementation of the
// one-pass on-the-fly Viterbi search — the pre-tokenStore decoder, kept as
// the package's differential oracle and allocation baseline. Results are
// byte-identical to Decode: same hypotheses, word end times, costs,
// lattices and Stats. It honors the same Config, including
// RescueWidenings, but takes no context: it exists for testing and
// benchmarking, not serving.
func (d *OnTheFly) DecodeReference(scores [][]float32) *Result {
	cfg := d.cfg
	lat := &lattice{}
	st := Stats{Frames: len(scores)}

	cur := newRefFrontier(1)
	cur.relax(otfKey(d.am.Start(), d.lm.Start()), semiring.One, -1)
	d.epsClosureRef(cur, lat, &st, semiring.Zero, -1)
	d.hookRef(-1, cur)

	for f := range scores {
		var snap *refFrontier
		if cfg.RescueWidenings > 0 {
			snap = cur.snapshot()
		}
		beam, maxActive := cfg.Beam, cfg.MaxActive
		next := d.stepFrameRef(cur, scores[f], beam, maxActive, lat, &st, f)
		for attempt := 0; len(next.order) == 0 && attempt < cfg.RescueWidenings; attempt++ {
			st.Rescues++
			beam *= 2
			if maxActive > 0 {
				maxActive *= 2
			}
			cur = snap.snapshot()
			next = d.stepFrameRef(cur, scores[f], beam, maxActive, lat, &st, f)
		}
		if len(next.order) == 0 {
			st.SearchFailures++
			if cfg.RescueWidenings > 0 {
				cur = snap
				d.hookRef(f, cur)
				continue
			}
			return d.finishRef(cur, lat, st)
		}
		cur = next
		d.hookRef(f, cur)
	}
	return d.finishRef(cur, lat, st)
}

// stepFrameRef is stepFrame over the map frontier: beam/histogram pruning
// in place, emission of every non-epsilon arc in insertion order, and the
// epsilon closure of the resulting frontier.
func (d *OnTheFly) stepFrameRef(cur *refFrontier, frame []float32, beam semiring.Weight, maxActive int, lat *lattice, st *Stats, f int) *refFrontier {
	cfg := d.cfg
	st.TokensBeamCut += cur.prune(beam, maxActive)
	st.TokensExpanded += int64(len(cur.order))
	next := newRefFrontier(2 * len(cur.order))

	runningBest := semiring.Zero
	for i := 0; i < len(cur.order); i++ {
		key := cur.order[i]
		tok := cur.m[key]
		amS := wfst.StateID(key >> 32)
		lmS := wfst.StateID(uint32(key))
		for _, a := range d.am.Arcs(amS) {
			if a.In == wfst.Epsilon {
				continue
			}
			st.ArcsTraversed++
			c := tok.cost + a.W - semiring.Weight(cfg.AcousticScale*frame[a.In])
			lmNext, latIdx := lmS, tok.lat
			if a.Out != wfst.Epsilon {
				thr := semiring.Zero
				if !semiring.IsZero(runningBest) {
					thr = runningBest + beam
				}
				var ok bool
				var lmW semiring.Weight
				lmNext, lmW, ok = d.resolve(lmS, a.Out, c, thr, st)
				if !ok {
					continue
				}
				c += lmW
				latIdx = lat.add(a.Out, tok.lat, int32(f))
			}
			if !finiteWeight(c) {
				continue
			}
			if created, _ := next.relax(otfKey(a.Next, lmNext), c, latIdx); created {
				st.TokensCreated++
			}
			if c < runningBest {
				runningBest = c
			}
		}
	}
	d.epsClosureRef(next, lat, st, semiring.Zero, int32(f))
	return next
}

// epsClosureRef is epsClosure over the map frontier, with the worklist
// seeded and extended in the same order as the store version.
func (d *OnTheFly) epsClosureRef(active *refFrontier, lat *lattice, st *Stats, thr semiring.Weight, frame int32) {
	queue := make([]uint64, 0, len(active.order))
	queue = append(queue, active.order...)
	for len(queue) > 0 {
		key := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		tok := active.m[key]
		amS := wfst.StateID(key >> 32)
		lmS := wfst.StateID(uint32(key))
		for _, a := range d.am.Arcs(amS) {
			if a.In != wfst.Epsilon {
				continue
			}
			st.EpsTraversed++
			c := tok.cost + a.W
			lmNext, latIdx := lmS, tok.lat
			if a.Out != wfst.Epsilon {
				var okRes bool
				var lmW semiring.Weight
				lmNext, lmW, okRes = d.resolve(lmS, a.Out, c, thr, st)
				if !okRes {
					continue
				}
				c += lmW
				latIdx = lat.add(a.Out, tok.lat, frame)
			}
			nKey := otfKey(a.Next, lmNext)
			created, improved := active.relax(nKey, c, latIdx)
			if created {
				st.TokensCreated++
			}
			if improved {
				queue = append(queue, nKey)
			}
		}
	}
}

// finishRef mirrors finish over the map frontier in insertion order.
func (d *OnTheFly) finishRef(active *refFrontier, lat *lattice, st Stats) *Result {
	res := &Result{Cost: semiring.Zero, Stats: st}
	bestAny, bestAnyLat := semiring.Zero, int32(-1)
	for _, key := range active.order {
		tok := active.m[key]
		amS := wfst.StateID(key >> 32)
		lmS := wfst.StateID(uint32(key))
		fa, fl := d.am.Final(amS), d.lm.Final(lmS)
		if !semiring.IsZero(fa) && !semiring.IsZero(fl) {
			c := tok.cost + fa + fl
			if c < res.Cost {
				res.Cost = c
				res.Words, res.WordEnds = lat.backtrace(tok.lat)
				res.ReachedFinal = true
			}
		}
		if tok.cost < bestAny {
			bestAny, bestAnyLat = tok.cost, tok.lat
		}
	}
	if !res.ReachedFinal && !semiring.IsZero(bestAny) {
		res.Cost = bestAny
		res.Words, res.WordEnds = lat.backtrace(bestAnyLat)
	}
	res.Stats.LatticeEntries = int64(lat.entries())
	return res
}

// beamPrune removes tokens worse than best+beam, then applies the
// MaxActive histogram cap. It returns the surviving-token threshold used by
// preemptive pruning and the number of removed tokens. Deterministic: ties
// are broken by key.
func beamPrune(active map[uint64]token, beam semiring.Weight, maxActive int) (semiring.Weight, int64) {
	if len(active) == 0 {
		return semiring.Zero, 0
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
		thr = all[maxActive-1].c
	}
	return thr, cut
}

// relax performs the tropical-semiring token update: keep the better cost.
// It reports whether the destination token was created or improved.
func relax(m map[uint64]token, key uint64, cost semiring.Weight, lat int32) (created, improved bool) {
	old, ok := m[key]
	if !ok {
		m[key] = token{cost, lat}
		return true, true
	}
	if cost < old.cost {
		m[key] = token{cost, lat}
		return false, true
	}
	return false, false
}
