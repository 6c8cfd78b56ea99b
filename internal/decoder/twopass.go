package decoder

import (
	"fmt"
	"slices"

	"repro/internal/semiring"
	"repro/internal/wfst"
)

// TwoPass implements the alternative on-the-fly strategy the paper's
// related-work section contrasts with its one-pass design (Ljolje et al.
// [17]): a first Viterbi pass over the acoustic model with only unigram
// look-ahead scores produces multiple hypotheses (an N-best word lattice),
// and a second pass rescores them with the full back-off LM. The paper
// rejects this scheme for hardware because the rescoring pass cannot start
// until the utterance ends, inflating latency — the comparison the
// `twopass` experiment quantifies.
type TwoPass struct {
	am  *wfst.WFST
	lm  *wfst.WFST
	cfg Config
	// K is the number of distinct word histories kept per AM state during
	// the first pass (the lattice beam). Default 4.
	K int
}

// NewTwoPass builds the two-pass decoder. The LM must be input-sorted.
func NewTwoPass(amGraph, lmGraph *wfst.WFST, cfg Config, k int) (*TwoPass, error) {
	if amGraph.Start() == wfst.NoState || lmGraph.Start() == wfst.NoState {
		return nil, fmt.Errorf("decoder: two-pass graphs need start states")
	}
	if !lmGraph.InSorted() {
		return nil, fmt.Errorf("decoder: LM graph must be input-sorted")
	}
	if k <= 0 {
		k = 4
	}
	return &TwoPass{am: amGraph, lm: lmGraph, cfg: cfg.withDefaults(), K: k}, nil
}

// TwoPassResult extends Result with pass-level accounting.
type TwoPassResult struct {
	Result
	// Candidates is the number of distinct word sequences rescored.
	Candidates int
	// PassOneCost is the best first-pass (AM + unigram) cost.
	PassOneCost semiring.Weight
}

// ktoken is a first-pass hypothesis: cost so far, lattice backpointer, and
// a rolling hash of the word history used to keep the K alternatives
// distinct in *words*, not just in cost.
type ktoken struct {
	cost semiring.Weight
	lat  int32
	hist uint64
}

func extendHist(h uint64, word int32) uint64 {
	return h*1315423911 + uint64(uint32(word)) + 0x9e3779b97f4a7c15
}

// kfrontier is the first-pass active set: K-best token lists keyed by AM
// state, plus the states in insertion order. Like the one-pass tokenStore,
// iteration follows insertion order rather than Go's randomized map order,
// so candidate collection, pruning statistics and N-best tie-breaking are
// deterministic run to run.
type kfrontier struct {
	m     map[wfst.StateID][]ktoken
	order []wfst.StateID
}

func newKFrontier(capHint int) *kfrontier {
	return &kfrontier{m: make(map[wfst.StateID][]ktoken, capHint)}
}

// Decode runs both passes and returns the rescored best hypothesis.
func (d *TwoPass) Decode(scores [][]float32) *TwoPassResult {
	list := d.NBest(scores, 1)
	if len(list) == 0 {
		return &TwoPassResult{Result: Result{Cost: semiring.Zero}}
	}
	return list[0]
}

// NBest runs both passes and returns up to n rescored hypotheses ranked by
// total cost — the N-best list applications such as confidence estimation
// and downstream reranking consume.
func (d *TwoPass) NBest(scores [][]float32, n int) []*TwoPassResult {
	cand, passOneBest, st := d.passOne(scores)
	if n <= 0 {
		n = 1
	}
	results := make([]*TwoPassResult, 0, len(cand))
	for _, c := range cand {
		var st2 Stats
		rescored := semiring.Times(c.acCost, d.lmSequenceCost(c.words, &st2))
		if semiring.IsZero(rescored) {
			continue
		}
		results = append(results, &TwoPassResult{
			Result: Result{
				Words:        c.words,
				Cost:         rescored,
				ReachedFinal: true,
			},
			Candidates:  len(cand),
			PassOneCost: passOneBest,
		})
	}
	// Stable so equal-cost hypotheses rank in their (deterministic)
	// collection order.
	slices.SortStableFunc(results, func(a, b *TwoPassResult) int {
		switch {
		case a.Cost < b.Cost:
			return -1
		case a.Cost > b.Cost:
			return 1
		default:
			return 0
		}
	})
	if len(results) > n {
		results = results[:n]
	}
	// Attach the shared pass-one stats to the head of the list.
	if len(results) > 0 {
		results[0].Stats = st
	} else {
		results = append(results, &TwoPassResult{
			Result: Result{Cost: semiring.Zero, Stats: st}, Candidates: len(cand), PassOneCost: passOneBest,
		})
	}
	return results
}

// candidate is one distinct first-pass word sequence with its acoustic+AM
// cost (unigram look-ahead scores removed, so pass two rescoring is exact).
type candidate struct {
	words  []int32
	acCost semiring.Weight
}

// passOne is a K-best Viterbi search over the AM with unigram look-ahead:
// tokens are keyed by AM state alone, each state keeping up to K
// alternatives with distinct word histories.
func (d *TwoPass) passOne(scores [][]float32) ([]candidate, semiring.Weight, Stats) {
	cfg := d.cfg
	st := Stats{Frames: len(scores)}
	lat := &lattice{}

	uniCost := func(word int32) semiring.Weight {
		idx, ok := d.lm.FindArc(d.lm.Start(), word, nil)
		st.LMFetches++
		if !ok {
			return semiring.Zero
		}
		return d.lm.Arcs(d.lm.Start())[idx].W
	}

	cur := newKFrontier(1)
	cur.m[d.am.Start()] = []ktoken{{cost: semiring.One, lat: -1, hist: 14695981039346656037}}
	cur.order = append(cur.order, d.am.Start())
	d.epsClosure(cur, lat, uniCost, &st)

	for f := range scores {
		d.prune(cur, &st)
		next := newKFrontier(2 * len(cur.order))
		frame := scores[f]
		for _, s := range cur.order {
			toks := cur.m[s]
			st.TokensExpanded += int64(len(toks))
			for _, a := range d.am.Arcs(s) {
				if a.In == wfst.Epsilon {
					continue
				}
				st.ArcsTraversed++
				base := a.W - semiring.Weight(cfg.AcousticScale*frame[a.In])
				for _, t := range toks {
					c := t.cost + base
					nt := ktoken{cost: c, lat: t.lat, hist: t.hist}
					if a.Out != wfst.Epsilon {
						u := uniCost(a.Out)
						if semiring.IsZero(u) {
							continue
						}
						nt.cost += u
						nt.lat = lat.add(a.Out, t.lat, int32(f))
						nt.hist = extendHist(t.hist, a.Out)
						st.LatticeEntries++
					}
					d.relaxK(next, a.Next, nt, &st)
				}
			}
		}
		d.epsClosure(next, lat, uniCost, &st)
		if len(next.order) == 0 {
			break
		}
		cur = next
	}

	// Collect final candidates; strip the unigram look-ahead so pass two
	// scores are exact: acCost = cost - sum(unigram(word)). If no token
	// reached a word boundary (final AM state), fall back to the best
	// partial hypotheses, as the one-pass decoder does.
	collect := func(finalsOnly bool) ([]candidate, semiring.Weight) {
		seen := map[uint64]bool{}
		var out []candidate
		best := semiring.Zero
		for _, s := range cur.order {
			toks := cur.m[s]
			fw := d.am.Final(s)
			if finalsOnly && semiring.IsZero(fw) {
				continue
			}
			if !finalsOnly {
				fw = semiring.One
			}
			for _, t := range toks {
				c := t.cost + fw
				if c < best {
					best = c
				}
				if seen[t.hist] {
					continue
				}
				seen[t.hist] = true
				words, _ := lat.backtrace(t.lat)
				ac := c
				for _, w := range words {
					idx, ok := d.lm.FindArc(d.lm.Start(), w, nil)
					if ok {
						ac -= d.lm.Arcs(d.lm.Start())[idx].W
					}
				}
				out = append(out, candidate{words: words, acCost: ac})
			}
		}
		return out, best
	}
	out, best := collect(true)
	if len(out) == 0 {
		out, best = collect(false)
	}
	return out, best, st
}

// relaxK inserts a token into a state's K-best list, deduplicating by word
// history (keep the cheaper) and keeping the K best by cost. The sort is
// stable so equal-cost alternatives keep their arrival order — part of the
// two-pass determinism contract.
func (d *TwoPass) relaxK(f *kfrontier, s wfst.StateID, nt ktoken, st *Stats) bool {
	toks, ok := f.m[s]
	for i := range toks {
		if toks[i].hist == nt.hist {
			if nt.cost < toks[i].cost {
				toks[i] = nt
				return true
			}
			return false
		}
	}
	toks = append(toks, nt)
	slices.SortStableFunc(toks, func(a, b ktoken) int {
		switch {
		case a.cost < b.cost:
			return -1
		case a.cost > b.cost:
			return 1
		default:
			return 0
		}
	})
	if len(toks) > d.K {
		toks = toks[:d.K]
	}
	f.m[s] = toks
	if !ok {
		f.order = append(f.order, s)
	}
	st.TokensCreated++
	return true
}

// prune applies the beam over all states' best tokens, dropping emptied
// states from the insertion-order list (survivors keep their order).
func (d *TwoPass) prune(cur *kfrontier, st *Stats) {
	best := semiring.Zero
	for _, s := range cur.order {
		if toks := cur.m[s]; len(toks) > 0 && toks[0].cost < best {
			best = toks[0].cost
		}
	}
	thr := best + d.cfg.Beam
	n := 0
	for _, s := range cur.order {
		toks := cur.m[s]
		keep := toks[:0]
		for _, t := range toks {
			if t.cost <= thr {
				keep = append(keep, t)
			} else {
				st.TokensBeamCut++
			}
		}
		if len(keep) == 0 {
			delete(cur.m, s)
			continue
		}
		cur.m[s] = keep
		cur.order[n] = s
		n++
	}
	cur.order = cur.order[:n]
}

// epsClosure relaxes non-emitting AM arcs for K-best token lists.
func (d *TwoPass) epsClosure(active *kfrontier, lat *lattice, uniCost func(int32) semiring.Weight, st *Stats) {
	queue := make([]wfst.StateID, 0, len(active.order))
	queue = append(queue, active.order...)
	for len(queue) > 0 {
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		toks := active.m[s]
		for _, a := range d.am.Arcs(s) {
			if a.In != wfst.Epsilon {
				continue
			}
			st.EpsTraversed++
			for _, t := range toks {
				nt := ktoken{cost: t.cost + a.W, lat: t.lat, hist: t.hist}
				if a.Out != wfst.Epsilon {
					u := uniCost(a.Out)
					if semiring.IsZero(u) {
						continue
					}
					nt.cost += u
					nt.lat = lat.add(a.Out, t.lat, -1)
					nt.hist = extendHist(t.hist, a.Out)
					st.LatticeEntries++
				}
				if d.relaxK(active, a.Next, nt, st) {
					queue = append(queue, a.Next)
				}
			}
		}
	}
}

// lmSequenceCost walks the full LM for a word sequence (with back-off) and
// returns its total cost including the final weight.
func (d *TwoPass) lmSequenceCost(words []int32, st *Stats) semiring.Weight {
	s := d.lm.Start()
	cost := semiring.One
	for _, w := range words {
		next, aw, hops, ok := d.lm.ResolveWord(s, w)
		st.LMFetches++
		st.BackoffHops += int64(hops)
		if !ok {
			return semiring.Zero
		}
		cost = semiring.Times(cost, aw)
		s = next
	}
	return semiring.Times(cost, d.lm.Final(s))
}
