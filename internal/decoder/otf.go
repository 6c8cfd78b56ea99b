package decoder

import (
	"context"
	"fmt"

	"repro/internal/bias"
	"repro/internal/semiring"
	"repro/internal/wfst"
)

// OnTheFly is the paper's decoder: a one-pass Viterbi beam search that
// composes the AM and LM transducers on demand. Tokens are (AM state,
// LM state) pairs; word-internal AM arcs advance only the AM side, and
// cross-word arcs additionally fetch the LM arc for the emitted word,
// walking back-off arcs as needed (Section 2, Figure 3c).
type OnTheFly struct {
	am  *wfst.WFST
	lm  *wfst.WFST
	cfg Config
	// amEps is the AM graph's shared EpsInStates bitset: the epsilon closure
	// visits only tokens whose AM state has a non-emitting arc.
	amEps []uint64
	// memo is the paper's Offset Lookup Table (Section 3.2, Figure 7): a
	// direct-mapped table from (LM state, word) to the arc index a previous
	// binary search resolved, overwritten on conflict. It persists across
	// this decoder's utterances, as the hardware table does, because word
	// recurrence is exactly the locality it exploits. It is allocated by the
	// first LookupMemo fetch, so construction stays O(1) and the other lookup
	// strategies never pay for it. Its contents never decide a result: an
	// entry is a pure function of the static LM graph, so a conflict or a
	// cold table costs only a repeated binary search.
	memo []memoEntry
	// frameHook, when non-nil, receives the post-closure frontier after the
	// initial epsilon closure (frame == -1) and after every decoded frame,
	// in frontier iteration order. It is the seam the differential test
	// harness uses to compare per-frame token sets between the tokenStore
	// path and the retained map reference; production decodes leave it nil.
	frameHook func(frame int, keys []uint64, toks []token)
	// beam and maxActive are the search's operating point: the configured
	// Beam and MaxActive, or the preset SetOptions installed.
	beam      semiring.Weight
	maxActive int
	// bias, when non-nil, is the third on-the-fly machine: search runs over
	// AM ∘ LM ∘ Bias with the per-tenant machine advanced on every emitted
	// word (Options.Bias). nil keeps the two-layer search byte-identical to
	// the pre-bias decoder, including key packing (see bias.go). biasSlack
	// is the machine's MaxBonus, added to the preemptive-pruning threshold
	// so a hypothesis about to earn a bonus is never pre-pruned for cost the
	// bonus would repay; it is exactly 0 with no machine installed.
	bias      *bias.Machine
	biasSlack semiring.Weight
}

// NewOnTheFly builds the on-the-fly decoder over separate AM and LM graphs.
// The LM must be input-sorted (binary search requirement).
func NewOnTheFly(amGraph, lmGraph *wfst.WFST, cfg Config) (*OnTheFly, error) {
	if amGraph.Start() == wfst.NoState || lmGraph.Start() == wfst.NoState {
		return nil, fmt.Errorf("decoder: on-the-fly graphs need start states")
	}
	if !lmGraph.InSorted() {
		return nil, fmt.Errorf("decoder: LM graph must be input-sorted")
	}
	cfg = cfg.withDefaults()
	return &OnTheFly{am: amGraph, lm: lmGraph, cfg: cfg, amEps: amGraph.EpsInStates(),
		beam: cfg.Beam, maxActive: cfg.MaxActive}, nil
}

// memoBits sizes the offset table: 1<<12 entries of 12 bytes, 48 KiB. The
// Figure 7 sweep at big-gmm scale (EXPERIMENTS.md) found search time flat
// from one entry to 1<<18, so the size is a constant, not an option.
const memoBits = 12

// memoEntry is one offset-table slot. State and word are stored whole, so a
// hit is exact for any label width. arc is the arc index plus one: the zero
// entry is an empty slot and can never hit.
type memoEntry struct {
	state wfst.StateID
	word  int32
	arc   int32
}

// memoSlot maps (LM state, word) to its direct-mapped slot by a Fibonacci
// hash, so adjacent LM states and adjacent words spread over the table.
func memoSlot(s wfst.StateID, word int32) uint64 {
	return (uint64(uint32(s))<<32 | uint64(uint32(word))) * 0x9E3779B97F4A7C15 >> (64 - memoBits)
}

// hasEps reports whether AM state s has a non-emitting arc.
func (d *OnTheFly) hasEps(s wfst.StateID) bool { return d.amEps[s>>6]>>(s&63)&1 != 0 }

// ResetMemo clears the offset table (for ablations that model a cold table
// per utterance).
func (d *OnTheFly) ResetMemo() { clear(d.memo) }

func otfKey(am, lm wfst.StateID) uint64 {
	return uint64(uint32(am))<<32 | uint64(uint32(lm))
}

// hook invokes the differential-test frame hook, if installed.
func (d *OnTheFly) hook(frame int, s *tokenStore) {
	if d.frameHook != nil {
		d.frameHook(frame, s.keys, s.toks)
	}
}

// Decode runs the one-pass on-the-fly Viterbi search over acoustic scores;
// a fault (see DecodeContext) yields a Result with no words.
func (d *OnTheFly) Decode(scores [][]float32) *Result {
	res, _ := d.decode(context.Background(), nil, scores, len(scores))
	return res
}

// DecodeContext searches frames rows that src supplies as the search
// reaches them (see Feeder) — finished score rows, or features a scorer
// scores on demand, so a GMM scores only the senones the search reads. The
// context is checked once per frame; on cancellation the best partial
// hypothesis decoded so far is returned together with ctx.Err(). Any other
// error is a fault the session caught (a panic in the search or in src, a
// memory fault on a mapped graph), with a Result that has no words. The
// returned Result is never nil. Over the same rows the result is Decode's,
// and a Stream's.
func (d *OnTheFly) DecodeContext(ctx context.Context, src Feeder, frames int) (*Result, error) {
	return d.decode(ctx, src, nil, frames)
}

// decode runs one guarded session over n frames read from src, or from
// rows when src is nil, and publishes it to the telemetry once.
func (d *OnTheFly) decode(ctx context.Context, src Feeder, rows [][]float32, n int) (res *Result, err error) {
	tel := d.cfg.Telemetry
	start, sp := tel.now(), tel.startSpan("decode")
	var s session
	if fault := s.guard(func() {
		s.open(d, getScratch())
		if src == nil {
			src = s.sc.rows(rows)
		}
		err = s.feed(ctx, src, n)
		res = s.result()
	}); fault != nil {
		return &Result{Cost: semiring.Zero, Stats: s.st}, fault
	}
	putScratch(s.sc)
	tel.recordDecode(res.Stats, start, sp)
	return res, err
}

// stepFrame advances the search by one frame: beam/histogram pruning of cur
// (in place), emission of every non-epsilon arc, and the epsilon closure of
// the resulting frontier, written into next (which is reset first). The
// scores are src.Row(row), asked for once cur is pruned, so a feeder that
// scores on demand sees exactly the senones the emission loop reads
// (sc.need); f is the frame's index in the utterance. Tokens are expanded
// in frontier insertion order, which is deterministic by construction, so
// the running-best threshold (and hence preemptive-pruning statistics) are
// reproducible without the sorted key pass the map frontier needed.
func (d *OnTheFly) stepFrame(cur, next *tokenStore, src Feeder, row int, beam semiring.Weight, maxActive int, lat *lattice, st *Stats, f int, sc *scratch) {
	cfg := d.cfg
	_, cut := sc.beamPrune(cur, beam, maxActive)
	st.TokensBeamCut += cut
	st.TokensExpanded += int64(cur.len())
	next.reset(nextPerToken * cur.len())
	sc.needD, sc.needCur = d, cur
	frame := src.Row(row, sc.need)

	// Preemptive pruning compares against the best hypothesis created
	// so far in this frame plus the beam. The frame's final threshold
	// can only be tighter, so anything pruned here was doomed anyway —
	// the safety argument of Section 3.3.
	runningBest := semiring.Zero
	var span [gatherBlock][2]uint32 // AM arc ranges of the current block of tokens
	for i := 0; i < len(cur.keys); i++ {
		j := i % gatherBlock
		if j == 0 {
			d.gather(cur.keys[i:min(i+gatherBlock, len(cur.keys))], &span, sc)
		}
		key := cur.keys[i]
		tok := cur.toks[i]
		_, lmS, bS := d.unpack(key)
		for _, a := range d.am.ArcSpan(span[j][0], span[j][1]) {
			if a.In == wfst.Epsilon {
				continue
			}
			st.ArcsTraversed++
			c := tok.cost + a.W - semiring.Weight(cfg.AcousticScale*frame[a.In])
			lmNext, bNext, latIdx := lmS, bS, tok.lat
			if a.Out != wfst.Epsilon {
				thr := semiring.Zero // +Inf: nothing to compare against yet
				if !semiring.IsZero(runningBest) {
					// biasSlack loosens the preemptive threshold by the bias
					// machine's largest pending bonus (0 with none installed):
					// a word that completes a phrase repays up to that much,
					// so pruning before the bias advance must leave room.
					thr = runningBest + beam + d.biasSlack
				}
				var ok bool
				var lmW semiring.Weight
				lmNext, lmW, ok = d.resolve(lmS, a.Out, c, thr, st)
				if !ok {
					continue // preemptively pruned (or unresolvable word)
				}
				c += lmW
				if d.bias != nil {
					var bW semiring.Weight
					bNext, bW = d.bias.Advance(bS, a.Out)
					c += bW
				}
				latIdx = lat.add(a.Out, tok.lat, int32(f))
			}
			if !finiteWeight(c) {
				// NaN/Inf acoustic scores (a misbehaving scorer) would
				// otherwise poison every downstream token; drop the
				// hypothesis and let healthy arcs carry the frame.
				continue
			}
			if _, created, _ := next.relax(d.key(a.Next, lmNext, bNext), c, latIdx); created {
				st.TokensCreated++
			}
			if c < runningBest {
				runningBest = c
			}
		}
	}
	d.epsClosure(next, lat, st, semiring.Zero, int32(f), sc)
}

// nextPerToken is how many entries stepFrame expects the next frontier to
// hold per token it expands (measured ~2.9 on big-gmm at beam 85); reset
// turns the product into a probe-table size.
const nextPerToken = 3

// gatherBlock is how many tokens ahead stepFrame reads AM state records and
// arc lines before it expands the first of them.
const gatherBlock = 16

// gather reads the arc range of every key's AM state into span, then the
// first and last arc of each range. The loads of one pass do not depend on
// each other, so the core overlaps their cache misses (two per token: the
// state record, then the arc line it points at) instead of taking them one
// token at a time inside the expansion loop. The arc loads are summed into
// the scratch set only so that they are not dead code.
func (d *OnTheFly) gather(keys []uint64, span *[gatherBlock][2]uint32, sc *scratch) {
	for j, key := range keys {
		amS, _, _ := d.unpack(key)
		span[j][0], span[j][1] = d.am.ArcRange(amS)
	}
	var sum int32
	for j := range keys {
		if arcs := d.am.ArcSpan(span[j][0], span[j][1]); len(arcs) > 0 {
			sum += arcs[0].In + arcs[len(arcs)-1].In
		}
	}
	sc.touched += sum
}

// finiteWeight reports whether w is neither NaN nor ±Inf (w-w is 0 only for
// finite w).
func finiteWeight(w semiring.Weight) bool { return w-w == 0 }

// resolve locates the LM transition for word out of state s, walking the
// back-off chain. base is the hypothesis cost before LM weights; with
// preemptive pruning enabled, the walk aborts as soon as base plus the
// accumulated back-off penalties crosses thr (Section 3.3: the Arc Issuer
// re-checks the threshold after applying each back-off weight).
func (d *OnTheFly) resolve(s wfst.StateID, word int32, base, thr semiring.Weight, st *Stats) (wfst.StateID, semiring.Weight, bool) {
	st.LMFetches++
	acc := semiring.One
	for hops := 0; hops < 16; hops++ {
		if idx, ok := d.find(s, word, st); ok {
			a := d.lm.Arcs(s)[idx]
			return a.Next, acc + a.W, true
		}
		bo, ok := d.lm.BackoffArc(s)
		if !ok {
			return wfst.NoState, semiring.Zero, false
		}
		st.BackoffHops++
		acc += bo.W
		s = bo.Next
		if d.cfg.PreemptivePruning && base+acc > thr {
			st.PreemptivePruned++
			return wfst.NoState, semiring.Zero, false
		}
	}
	return wfst.NoState, semiring.Zero, false
}

// find locates the arc for word at LM state s according to the configured
// lookup strategy, counting probes and memo hits.
func (d *OnTheFly) find(s wfst.StateID, word int32, st *Stats) (int, bool) {
	switch d.cfg.Lookup {
	case LookupLinear:
		var probes int
		idx, ok := d.lm.FindArcLinear(s, word, &probes)
		st.LMProbes += int64(probes)
		return idx, ok
	case LookupBinary:
		var probes int
		idx, ok := d.lm.FindArc(s, word, &probes)
		st.LMProbes += int64(probes)
		return idx, ok
	default: // LookupMemo
		if d.memo == nil {
			d.memo = make([]memoEntry, 1<<memoBits)
		}
		e := &d.memo[memoSlot(s, word)]
		if e.arc != 0 && e.state == s && e.word == word {
			st.MemoHits++
			return int(e.arc - 1), true
		}
		var probes int
		idx, ok := d.lm.FindArc(s, word, &probes)
		st.LMProbes += int64(probes)
		st.MemoMisses++
		if ok {
			*e = memoEntry{state: s, word: word, arc: int32(idx) + 1}
		}
		return idx, ok
	}
}

// epsClosure relaxes non-emitting AM arcs within a frame. A non-emitting
// arc with a word output (possible in general transducers, though not
// produced by our AM builder) still performs the LM transition. The worklist
// holds store entry indices (entries are never removed during a closure, so
// indices are stable) and is recycled through the scratch set. Only tokens
// whose AM state has a non-emitting arc enter it: popping any other token
// relaxes nothing, so leaving it out changes no relaxation and no order.
func (d *OnTheFly) epsClosure(active *tokenStore, lat *lattice, st *Stats, thr semiring.Weight, frame int32, sc *scratch) {
	queue := sc.queue[:0]
	for i, key := range active.keys {
		if amS, _, _ := d.unpack(key); d.hasEps(amS) {
			queue = append(queue, int32(i))
		}
	}
	for len(queue) > 0 {
		idx := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		key := active.keys[idx]
		tok := active.toks[idx]
		amS, lmS, bS := d.unpack(key)
		for _, a := range d.am.Arcs(amS) {
			if a.In != wfst.Epsilon {
				continue
			}
			st.EpsTraversed++
			c := tok.cost + a.W
			lmNext, bNext, latIdx := lmS, bS, tok.lat
			if a.Out != wfst.Epsilon {
				var okRes bool
				var lmW semiring.Weight
				lmNext, lmW, okRes = d.resolve(lmS, a.Out, c, thr, st)
				if !okRes {
					continue
				}
				c += lmW
				if d.bias != nil {
					var bW semiring.Weight
					bNext, bW = d.bias.Advance(bS, a.Out)
					c += bW
				}
				latIdx = lat.add(a.Out, tok.lat, frame)
			}
			nIdx, created, improved := active.relax(d.key(a.Next, lmNext, bNext), c, latIdx)
			if created {
				st.TokensCreated++
			}
			if improved && d.hasEps(a.Next) {
				queue = append(queue, nIdx)
			}
		}
	}
	sc.queue = queue // retain any grown capacity for the next closure
}

// finish ends the on-the-fly and the composed search alike (the latter's
// pass-through LM accepts everywhere at weight One): a token is final when
// both component states accept, with the product final weight. The
// frontier is scanned in its deterministic insertion order, so cost ties
// resolve reproducibly. Every bias state is final, so an installed bias
// machine never changes which tokens accept — only their exit weight
// (repaying unfinished phrase matches).
func (d *OnTheFly) finish(active *tokenStore, lat *lattice, st Stats) *Result {
	res := &Result{Cost: semiring.Zero, Stats: st}
	bestAny, bestAnyLat := semiring.Zero, int32(-1)
	for i := range active.keys {
		key := active.keys[i]
		tok := active.toks[i]
		amS, lmS, bS := d.unpack(key)
		fa, fl := d.am.Final(amS), d.lm.Final(lmS)
		if !semiring.IsZero(fa) && !semiring.IsZero(fl) {
			c := tok.cost + fa + fl + d.biasFinal(bS)
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
