// Package wfst implements Weighted Finite State Transducers for speech
// recognition: an immutable compressed-sparse-row container, a mutable
// builder, label-sorted arc lookup, connectivity trimming, the offline
// AM∘LM composition the paper's baseline decodes over, and a binary
// serialization whose record sizes match the paper's memory layout
// (128-bit arcs, 64-bit state records, per Section 3.4 and [3]).
package wfst

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/semiring"
)

// StateID identifies a state within one WFST.
type StateID int32

// NoState is the invalid state sentinel.
const NoState StateID = -1

// Epsilon is the reserved label meaning "no symbol": an epsilon input label
// consumes no acoustic frame, an epsilon output label emits no word.
const Epsilon int32 = 0

// Arc is one weighted transition. In an acoustic-model WFST In is a senone
// (HMM-state) index and Out is a word ID (or Epsilon); in a language-model
// WFST In and Out are the same word ID, and back-off arcs carry Epsilon.
type Arc struct {
	In   int32
	Out  int32
	W    semiring.Weight
	Next StateID
}

// stateRec is the per-state CSR record: the index of the state's first arc
// (arcs of one state are contiguous) plus its final weight.
type stateRec struct {
	arcBegin uint32
	final    semiring.Weight
}

// WFST is an immutable transducer in compressed-sparse-row form.
// Construct one with a Builder, Compose, or ReadFrom.
type WFST struct {
	start  StateID
	states []stateRec // len = NumStates()+1; last entry is the arc sentinel
	arcs   []Arc
	// inSorted records that every state's arcs are sorted by input label,
	// which FindArc relies on.
	inSorted bool
	// external marks a transducer whose states/arcs slices alias memory the
	// WFST does not own (a mapped model-store section, see NewFromFlat).
	// Such memory may be read-only, so mutating operations must copy first.
	external bool
	// idx is heap state derived from the arc table on first use (buildIndex):
	// it belongs to the graph, so every decoder over it shares one copy.
	idx struct {
		once  sync.Once
		epsIn []uint64
	}
}

// buildIndex is the one O(arcs) pass behind EpsInStates. It only reads the
// arc table, so it is safe over a read-only mapped graph, and SortByInput
// (which permutes arcs within a state) leaves it valid.
func (f *WFST) buildIndex() {
	epsIn := make([]uint64, (f.NumStates()+63)/64)
	for s := 0; s < f.NumStates(); s++ {
		for _, a := range f.Arcs(StateID(s)) {
			if a.In == Epsilon {
				epsIn[s>>6] |= 1 << (s & 63)
			}
		}
	}
	f.idx.epsIn = epsIn
}

// EpsInStates returns the bitset of states that have an input-epsilon arc:
// bit s&63 of word s>>6 is set iff Arcs(s) holds an arc with In == Epsilon.
// It is built once per graph and shared; callers must not modify it.
func (f *WFST) EpsInStates() []uint64 {
	f.idx.once.Do(f.buildIndex)
	return f.idx.epsIn
}

// Start returns the initial state, or NoState for an empty transducer.
func (f *WFST) Start() StateID { return f.start }

// NumStates returns the number of states.
func (f *WFST) NumStates() int { return len(f.states) - 1 }

// NumArcs returns the total number of arcs.
func (f *WFST) NumArcs() int { return len(f.arcs) }

// Arcs returns the outgoing arcs of s as a read-only slice view.
func (f *WFST) Arcs(s StateID) []Arc {
	return f.arcs[f.states[s].arcBegin:f.states[s+1].arcBegin]
}

// ArcIndexBase returns the index of state s's first arc within the global
// arc array. The accelerator simulator uses it to derive memory addresses.
func (f *WFST) ArcIndexBase(s StateID) uint32 { return f.states[s].arcBegin }

// ArcRange returns the half-open range state s's arcs occupy in the global
// arc array, and ArcSpan the arcs of such a range: Arcs(s) in two steps, for
// a caller that reads a block of state records before it touches any arc.
func (f *WFST) ArcRange(s StateID) (lo, hi uint32) {
	return f.states[s].arcBegin, f.states[s+1].arcBegin
}

// ArcSpan returns arcs [lo, hi) of the global arc array as a read-only view.
func (f *WFST) ArcSpan(lo, hi uint32) []Arc { return f.arcs[lo:hi] }

// Final returns the final (exit) weight of s; semiring.Zero if s is not final.
func (f *WFST) Final(s StateID) semiring.Weight { return f.states[s].final }

// IsFinal reports whether s is an accepting state.
func (f *WFST) IsFinal(s StateID) bool { return !semiring.IsZero(f.states[s].final) }

// InSorted reports whether all arc lists are sorted by input label.
func (f *WFST) InSorted() bool { return f.inSorted }

// SortByInput sorts every state's arcs by input label (ties by output label,
// then destination). Epsilon (0) sorts first. Binary-search lookup and the
// packed LM encoding both require this ordering.
func (f *WFST) SortByInput() {
	if f.external {
		// Aliased (possibly read-only mapped) storage: writing through it
		// would fault or corrupt the shared bundle. Sort a private copy.
		f.states = append([]stateRec(nil), f.states...)
		f.arcs = append([]Arc(nil), f.arcs...)
		f.external = false
	}
	for s := StateID(0); int(s) < f.NumStates(); s++ {
		arcs := f.arcs[f.states[s].arcBegin:f.states[s+1].arcBegin]
		sort.Slice(arcs, func(i, j int) bool {
			if arcs[i].In != arcs[j].In {
				return arcs[i].In < arcs[j].In
			}
			if arcs[i].Out != arcs[j].Out {
				return arcs[i].Out < arcs[j].Out
			}
			return arcs[i].Next < arcs[j].Next
		})
	}
	f.inSorted = true
}

// FindArc locates the outgoing arc of s whose input label is in, using
// binary search over the input-sorted arc list. It returns the arc's index
// within Arcs(s) and true, or -1 and false when s has no such arc (the
// caller then follows the state's back-off arc, if any).
//
// Probes counts the number of binary-search probes performed, mirroring the
// memory fetches the hardware Arc Issuer would issue; pass nil to ignore it.
func (f *WFST) FindArc(s StateID, in int32, probes *int) (int, bool) {
	if !f.inSorted {
		panic("wfst: FindArc on transducer without SortByInput")
	}
	arcs := f.Arcs(s)
	lo, hi := 0, len(arcs)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		if probes != nil {
			*probes++
		}
		switch {
		case arcs[mid].In == in:
			// Rewind to the first arc with this label so multiple
			// pronunciations/alternatives are all visible to the caller.
			for mid > 0 && arcs[mid-1].In == in {
				mid--
				if probes != nil {
					*probes++
				}
			}
			return mid, true
		case arcs[mid].In < in:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return -1, false
}

// FindArcLinear is the linear-scan variant of FindArc, kept as the ablation
// baseline the paper reports as a 10x slowdown.
func (f *WFST) FindArcLinear(s StateID, in int32, probes *int) (int, bool) {
	arcs := f.Arcs(s)
	for i := range arcs {
		if probes != nil {
			*probes++
		}
		if arcs[i].In == in {
			return i, true
		}
		if f.inSorted && arcs[i].In > in {
			return -1, false
		}
	}
	return -1, false
}

// Paper memory-layout record sizes (Section 3.4 and [3]): each arc is a
// 128-bit structure (destination, input label, output label, weight — 32
// bits each); each state record packs the first-arc address and arc count
// into 64 bits using the bandwidth-reduction scheme of [34].
const (
	ArcBytes   = 16
	StateBytes = 8
)

// SizeBytes returns the storage footprint of the transducer under the
// paper's uncompressed memory layout. This is the quantity Table 1 and
// Figure 8 report, not Go's in-memory size.
func (f *WFST) SizeBytes() int64 {
	return int64(f.NumArcs())*ArcBytes + int64(f.NumStates())*StateBytes
}

// Validate checks structural invariants: a valid start state, in-range arc
// destinations and non-negative labels. It returns the first violation found.
func (f *WFST) Validate() error {
	n := StateID(f.NumStates())
	if n == 0 {
		if f.start != NoState {
			return fmt.Errorf("wfst: empty transducer with start %d", f.start)
		}
		return nil
	}
	if f.start < 0 || f.start >= n {
		return fmt.Errorf("wfst: start state %d out of range [0,%d)", f.start, n)
	}
	for s := StateID(0); s < n; s++ {
		if f.states[s].arcBegin > f.states[s+1].arcBegin {
			return fmt.Errorf("wfst: state %d has negative arc range", s)
		}
		for i, a := range f.Arcs(s) {
			if a.Next < 0 || a.Next >= n {
				return fmt.Errorf("wfst: state %d arc %d: destination %d out of range", s, i, a.Next)
			}
			if a.In < 0 || a.Out < 0 {
				return fmt.Errorf("wfst: state %d arc %d: negative label", s, i)
			}
		}
	}
	return nil
}

// Equal reports whether two transducers are structurally identical
// (same start, finals, and arc lists in the same order).
func Equal(a, b *WFST) bool {
	if a.start != b.start || a.NumStates() != b.NumStates() || a.NumArcs() != b.NumArcs() {
		return false
	}
	for s := StateID(0); int(s) < a.NumStates(); s++ {
		if a.states[s] != b.states[s] {
			return false
		}
	}
	for i := range a.arcs {
		if a.arcs[i] != b.arcs[i] {
			return false
		}
	}
	return true
}
