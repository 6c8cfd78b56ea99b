package decoder

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/semiring"
)

// tokenStore is the reusable token frontier of the Viterbi hot path: an
// open-addressing hash table over flat parallel slices. It replaces the
// per-frame map[uint64]token the seed decoder allocated (and the sorted key
// slice it built to iterate deterministically) with storage that is recycled
// across frames and across utterances, so a steady-state decode performs no
// per-frame heap allocation at all.
//
// Layout: ctrl is the power-of-two probe table; a slot holds entryIndex+1
// (0 = empty). keys and toks are parallel arrays in *insertion order*, which
// is the store's iteration order. Insertion order is a pure function of the
// search (arc order is fixed, predecessor order is the previous frame's
// insertion order), so iteration is deterministic without any sorting — the
// determinism contract documented in docs/ARCHITECTURE.md.
//
// The table is a prefix of its backing array, sized by reset to the frame it
// is about to hold; table size never decides insertion order. beamPrune
// leaves ctrl zero-length: a pruned store is iterate-only, and a relax on it
// panics on the first probe, until reset or copyFrom restores a table.
//
// A tokenStore is not safe for concurrent use; each decode owns its stores
// via the scratch pool (see scratch), and each pool worker therefore works
// on a private set.
type tokenStore struct {
	ctrl []int32 // probe table: entry index + 1, 0 = empty; len is a power of two, or 0 once pruned
	keys []uint64
	toks []token
	best semiring.Weight // minimum cost over toks, maintained by relax
}

// fibMul is the 64-bit Fibonacci-hashing multiplier (2^64 / golden ratio);
// the high table bits of key*fibMul spread the (AM,LM) state pairs evenly.
const fibMul = 0x9E3779B97F4A7C15

// minTableSize is the smallest probe table; big enough that tiny frontiers
// never rehash, small enough that clearing it between frames is free.
const minTableSize = 256

func newTokenStore() *tokenStore {
	return &tokenStore{ctrl: make([]int32, minTableSize), best: semiring.Zero}
}

// len reports the number of live tokens.
func (s *tokenStore) len() int { return len(s.keys) }

// reset empties the store for reuse, retaining all capacity. The probe table
// becomes the smallest power-of-two prefix of the backing array with four
// slots per expected entry, so a frame clears and probes a table of its own
// size rather than of the utterance's high-water mark; the array is replaced
// only when it is too short for that. An expectation that falls short costs
// a grow, never a result.
func (s *tokenStore) reset(expect int) {
	size := minTableSize
	for size < 4*expect {
		size *= 2
	}
	s.setTable(size)
	s.keys = s.keys[:0]
	s.toks = s.toks[:0]
	s.best = semiring.Zero
}

// setTable makes ctrl an empty probe table of size slots: a prefix of the
// backing array when it is long enough, a new array otherwise.
func (s *tokenStore) setTable(size int) {
	if size > cap(s.ctrl) {
		s.ctrl = make([]int32, size)
		return
	}
	s.ctrl = s.ctrl[:size]
	clear(s.ctrl)
}

// relax performs the tropical-semiring token update on the store: insert the
// token if its state pair is new, keep the better cost otherwise. It returns
// the entry index (stable until the next prune/reset) and whether the token
// was created or improved — the same contract as the retained map relax.
func (s *tokenStore) relax(key uint64, cost semiring.Weight, lat int32) (idx int32, created, improved bool) {
	mask := uint32(len(s.ctrl) - 1)
	slot := uint32((key*fibMul)>>32) & mask
	for {
		e := s.ctrl[slot]
		if e == 0 {
			if len(s.keys) >= len(s.ctrl)-len(s.ctrl)/4 {
				s.grow()
				return s.relax(key, cost, lat) // re-probe in the grown table
			}
			idx = int32(len(s.keys))
			s.keys = append(s.keys, key)
			s.toks = append(s.toks, token{cost, lat})
			s.ctrl[slot] = idx + 1
			if cost < s.best {
				s.best = cost
			}
			return idx, true, true
		}
		if s.keys[e-1] == key {
			if cost < s.toks[e-1].cost {
				s.toks[e-1] = token{cost, lat}
				if cost < s.best {
					s.best = cost
				}
				return e - 1, false, true
			}
			return e - 1, false, false
		}
		slot = (slot + 1) & mask
	}
}

// grow doubles the probe table, within the backing array while it has room,
// and reindexes every live entry.
func (s *tokenStore) grow() {
	s.setTable(2 * len(s.ctrl))
	s.reindex()
}

// reindex rebuilds the probe table (which must be zeroed) from the entry
// arrays after growth.
func (s *tokenStore) reindex() {
	mask := uint32(len(s.ctrl) - 1)
	for i, key := range s.keys {
		slot := uint32((key*fibMul)>>32) & mask
		for s.ctrl[slot] != 0 {
			slot = (slot + 1) & mask
		}
		s.ctrl[slot] = int32(i) + 1
	}
}

// copyFrom makes s an exact copy of o (entries, order, and probe layout),
// reusing s's storage. This is how rescue snapshots are taken and restored
// without allocating.
func (s *tokenStore) copyFrom(o *tokenStore) {
	s.keys = append(s.keys[:0], o.keys...)
	s.toks = append(s.toks[:0], o.toks...)
	s.ctrl = append(s.ctrl[:0], o.ctrl...)
	s.best = o.best
}

// pruneEnt is one histogram-pruning selection record: cost-ordered with the
// token key as the deterministic tiebreaker, exactly as the retained map
// frontier sorts (decoder.go beamPrune).
type pruneEnt struct {
	c semiring.Weight
	k uint64
	i int32 // entry index in the store being pruned
}

// less is the (cost, key) order of the histogram cap. Keys are unique within
// a frontier, so it is a strict total order over finite costs; a NaN cost
// compares equal to everything, as it does in the map beamPrune.
func (a pruneEnt) less(b pruneEnt) bool { return a.c < b.c || (a.c == b.c && a.k < b.k) }

// cmpPruneEnt is less as a three-way comparison, for slices.SortFunc.
func cmpPruneEnt(a, b pruneEnt) int {
	switch {
	case a.less(b):
		return -1
	case b.less(a):
		return 1
	}
	return 0
}

// selectSmallest permutes ents so that ents[:k] holds its k smallest entries
// under less, with the largest of them at ents[k-1]; 0 < k <= len(ents). It
// is an introselect: median-of-three Hoare partitioning narrows the window
// around position k-1 in expected linear time, and a window that is small,
// or has used up its depth budget, is sorted outright, which bounds the
// worst case at O(n log n). The partition scans stop at the entries the
// previous swap placed, whatever less answers, so an inconsistent order (NaN
// costs) can cost exactness but never bounds or termination.
func selectSmallest(ents []pruneEnt, k int) {
	lo, hi := 0, len(ents)-1
	for depth := 2 * bits.Len(uint(len(ents))); hi-lo >= 12 && depth > 0; depth-- {
		mid := lo + (hi-lo)/2
		if ents[mid].less(ents[lo]) {
			ents[mid], ents[lo] = ents[lo], ents[mid]
		}
		if ents[hi].less(ents[mid]) {
			ents[hi], ents[mid] = ents[mid], ents[hi]
			if ents[mid].less(ents[lo]) {
				ents[mid], ents[lo] = ents[lo], ents[mid]
			}
		}
		p := ents[mid]
		i, j := lo-1, hi+1
		for {
			for i++; ents[i].less(p); i++ {
			}
			for j--; p.less(ents[j]); j-- {
			}
			if i >= j {
				break
			}
			ents[i], ents[j] = ents[j], ents[i]
		}
		// ents[lo:j+1] <= ents[j+1:hi+1], both non-empty.
		if k-1 <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	slices.SortFunc(ents[lo:hi+1], cmpPruneEnt)
}

// scratch is the per-decode working set: the three frontier stores (current,
// next, rescue snapshot), the reusable lattice arena, the epsilon-closure
// worklist, and the histogram cap's bucket ids and selection buffer. Decodes
// borrow one from scratchPool and return it, so the whole set is recycled
// across utterances; a Stream owns one for its lifetime. Nothing in a scratch
// escapes into a Result (backtraces copy), which is what makes the recycling
// safe.
type scratch struct {
	cur, next, snap *tokenStore
	lat             lattice
	queue           []int32
	prune           []pruneEnt
	bucket          []uint16
	touched         int32 // sink of gather's arc loads

	// The Feeder side (feed.go): feed serves finished rows (one holds a
	// Push's row), and need is needSenones bound to this set, reading the
	// decoder and frontier stepFrame leaves in needD and needCur.
	feed    rowFeed
	one     [1][]float32
	need    func() []int32
	needD   *OnTheFly
	needCur *tokenStore
	senones []int32
	seen    []uint32
	gen     uint32
}

var scratchPool = sync.Pool{New: func() any {
	sc := &scratch{
		cur:   newTokenStore(),
		next:  newTokenStore(),
		snap:  newTokenStore(),
		queue: make([]int32, 0, minTableSize),
	}
	sc.need = sc.needSenones
	return sc
}}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch returns sc to the pool, dropping its references to the
// caller's rows and decoder so a pooled set keeps neither alive.
func putScratch(sc *scratch) {
	sc.feed.rows, sc.one[0] = nil, nil
	sc.needD, sc.needCur = nil, nil
	scratchPool.Put(sc)
}

// capBuckets is the resolution of the MaxActive cap's cost histogram: the
// beam is cut into this many equal cost ranges, and only the one range that
// holds the cut is ordered entry by entry.
const capBuckets = 1024

// beamPrune removes tokens worse than best+beam from s, then applies the
// MaxActive histogram cap, compacting survivors in insertion order. It
// mirrors the retained map beamPrune exactly: the same survivor set, the
// same (cost, key) tiebreak for the histogram cap, the same returned
// threshold and cut count. The minimum is the one relax tracked, and each
// compaction copies every entry down unconditionally and advances on the
// keep predicate, so neither takes a data-dependent branch. The probe table
// is not rebuilt: s is iterate-only until its next reset or copyFrom.
func (sc *scratch) beamPrune(s *tokenStore, beam semiring.Weight, maxActive int) (semiring.Weight, int64) {
	s.ctrl = s.ctrl[:0]
	if len(s.keys) == 0 {
		return semiring.Zero, 0
	}
	thr := s.best + beam
	keys, toks := s.keys, s.toks
	n := 0
	for i, t := range toks {
		keys[n], toks[n] = keys[i], t
		// Keep unless strictly worse than the threshold — the exact map
		// predicate (`cost > thr` deletes), preserving non-finite parity.
		if !(t.cost > thr) {
			n++
		}
	}
	cut := int64(len(keys) - n)

	if maxActive > 0 && n > maxActive {
		// A bucket id is monotone in cost, so every entry of a lower bucket
		// is strictly cheaper than every entry of a higher one and the
		// (cost, key) order only has to be resolved inside the bucket the
		// cap lands in. NaN, an infinite best and a zero beam all fall into
		// the last bucket, an infinite beam into the first: one bucket, and
		// the selection sees every entry as it would without the histogram.
		var hist [capBuckets]int32
		ids := slices.Grow(sc.bucket[:0], n)[:n]
		scale := capBuckets / beam
		for i, t := range toks[:n] {
			b := capBuckets - 1
			if x := (t.cost - s.best) * scale; x < capBuckets-1 {
				b = int(x)
			}
			ids[i] = uint16(b)
			hist[b]++
		}
		star, k := 0, maxActive // the cap keeps the k smallest of bucket star
		for k > int(hist[star]) {
			k -= int(hist[star])
			star++
		}
		ents := sc.prune[:0]
		for i, b := range ids {
			if int(b) == star {
				ents = append(ents, pruneEnt{toks[i].cost, keys[i], int32(i)})
			}
		}
		selectSmallest(ents, k)
		thr = ents[k-1].c
		for _, e := range ents[k:] {
			ids[e.i] = capBuckets // above every bucket: cut
		}
		m := 0
		for i, b := range ids {
			keys[m], toks[m] = keys[i], toks[i]
			if int(b) <= star {
				m++
			}
		}
		cut += int64(n - m)
		n = m
		sc.prune, sc.bucket = ents[:0], ids
	}
	s.keys, s.toks = keys[:n], toks[:n]
	return thr, cut
}
