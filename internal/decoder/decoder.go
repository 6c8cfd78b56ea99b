// Package decoder implements the software reference Viterbi beam search:
// one token-passing search over (AM state, LM state) pairs, the paper's
// on-the-fly composition (cross-word arcs trigger LM look-ups with back-off,
// an offset memo table, and preemptive back-off pruning). The same search is
// the fully-composed baseline (Yazdani et al. MICRO-49): NewComposed reads an
// offline-composed WFST as the AM side through a one-state pass-through LM
// whose every weight is One.
//
// Offline and on-the-fly composition give the search the same space, so —
// given the same beam — they produce the same hypothesis. That equivalence is
// the package's central test oracle, mirroring the paper's claim that
// on-the-fly composition changes memory behaviour, not results.
package decoder

import "repro/internal/semiring"

// LookupKind selects how the on-the-fly decoder locates LM arcs
// (Section 5.1 discusses all three: linear search is a 10x slowdown,
// binary search 3x, and the Offset Lookup Table brings it to 18%).
type LookupKind int

const (
	// LookupMemo is binary search backed by an offset memo table (the
	// software analogue of the paper's Offset Lookup Table). Default.
	LookupMemo LookupKind = iota
	// LookupBinary is plain binary search over input-sorted arcs.
	LookupBinary
	// LookupLinear scans arcs in order; the paper's worst-case baseline.
	LookupLinear
)

// String names the lookup strategy as used in benchmark and CLI labels.
func (k LookupKind) String() string {
	switch k {
	case LookupMemo:
		return "memo"
	case LookupBinary:
		return "binary"
	case LookupLinear:
		return "linear"
	default:
		return "unknown"
	}
}

// Config holds the beam-search parameters.
type Config struct {
	// Beam is the pruning beam in cost units; hypotheses worse than the
	// frame's best by more than Beam are discarded. Default 24, wide enough
	// that decoding is model-limited rather than search-limited on the
	// benchmark tasks (the paper's operating regime).
	Beam semiring.Weight
	// MaxActive caps the live tokens per frame (histogram pruning).
	// Default 3000; 0 means unlimited.
	MaxActive int
	// AcousticScale multiplies acoustic log-likelihoods before they enter
	// the search, balancing AM and LM dynamic ranges. Default 0.8.
	AcousticScale float32
	// PreemptivePruning enables the paper's Section 3.3 scheme: hypotheses
	// are threshold-checked at every back-off hop and abandoned early. The
	// composed baseline's pass-through LM has no back-off arcs, so it never
	// prunes there.
	PreemptivePruning bool
	// Lookup selects the LM arc-fetch strategy. The composed baseline's
	// fetches go to its pass-through LM.
	Lookup LookupKind
	// Telemetry, when non-nil, publishes continuous observability for this
	// decoder — per-frame frontier sizes, per-decode search-work counters
	// (LM fetches, back-off hops, memo hits, prune and rescue events), and
	// optional per-decode spans — into a telemetry registry shared with
	// other decoders. nil (the default) disables publication: the hot path
	// pays one branch per frame and allocates nothing, preserving the
	// zero-allocation steady state and byte-identical results. Telemetry
	// never changes search behaviour; it only observes Stats the search
	// already counts.
	Telemetry *Telemetry
	// RescueWidenings enables search-failure rescue: when a frame empties
	// the active-token set mid-utterance, the frame is retried from a
	// pre-pruning snapshot with the beam and MaxActive doubled, escalating
	// up to this many times (each widening is counted in Stats.Rescues). A
	// frame no widening can save — e.g. one whose scores are entirely NaN —
	// is skipped and the search continues from the snapshot (counted in
	// Stats.SearchFailures). 0, the default, preserves the non-rescued
	// behaviour: the best partial hypothesis is returned the moment the
	// search dies.
	RescueWidenings int
}

func (c Config) withDefaults() Config {
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

// Stats counts decoder work; the accelerator simulator consumes these to
// charge cycles and memory traffic. Every field counts search work: two
// decodes of one utterance, one configuration and equally warm offset
// tables have equal Stats, whatever the path (Decode, DecodeContext, Stream).
type Stats struct {
	// Frames is every frame the caller supplied, searched or not after a
	// search death; a canceled decode counts the frames it searched.
	Frames         int
	TokensExpanded int64 // tokens alive at the start of a frame
	TokensCreated  int64 // distinct (state) tokens materialized
	TokensBeamCut  int64 // tokens dropped by beam/histogram pruning
	ArcsTraversed  int64 // emitting arcs evaluated
	EpsTraversed   int64 // non-emitting arcs evaluated

	// LM-side work. Over the composed baseline's pass-through LM every word
	// arc is one fetch and no back-off hop.
	LMFetches        int64 // word resolutions triggered by cross-word arcs
	LMProbes         int64 // arc-search probes (binary or linear steps)
	BackoffHops      int64 // back-off arcs taken
	MemoHits         int64
	MemoMisses       int64
	PreemptivePruned int64 // hypotheses abandoned mid back-off walk

	// Rescues counts beam widenings performed by search-failure rescue
	// (Config.RescueWidenings); SearchFailures counts frames whose active
	// set emptied and stayed empty after any rescue attempts (at most one
	// per utterance when rescue is off — the search stops there).
	Rescues        int64
	SearchFailures int64

	// LatticeEntries is the number of word-lattice records written.
	LatticeEntries int64
}

// Add accumulates another utterance's counters into s — the batch-level
// aggregation a worker pool reports after fanning a test set out.
func (s *Stats) Add(o Stats) {
	s.Frames += o.Frames
	s.TokensExpanded += o.TokensExpanded
	s.TokensCreated += o.TokensCreated
	s.TokensBeamCut += o.TokensBeamCut
	s.ArcsTraversed += o.ArcsTraversed
	s.EpsTraversed += o.EpsTraversed
	s.LMFetches += o.LMFetches
	s.LMProbes += o.LMProbes
	s.BackoffHops += o.BackoffHops
	s.MemoHits += o.MemoHits
	s.MemoMisses += o.MemoMisses
	s.PreemptivePruned += o.PreemptivePruned
	s.Rescues += o.Rescues
	s.SearchFailures += o.SearchFailures
	s.LatticeEntries += o.LatticeEntries
}

// Result is the decoder output for one utterance.
type Result struct {
	// Words is the best hypothesis word sequence.
	Words []int32
	// WordEnds[i] is the frame index at which Words[i]'s cross-word
	// transition was taken (its end time, in frames); -1 for words emitted
	// by non-emitting arcs.
	WordEnds []int32
	// Cost is the total path cost including the final weight.
	Cost semiring.Weight
	// ReachedFinal reports whether the best token was in a final state; if
	// false the best partial hypothesis is returned.
	ReachedFinal bool
	Stats        Stats
}

// token is one live hypothesis: a path cost and a backpointer into the
// word lattice.
type token struct {
	cost semiring.Weight
	lat  int32
}

// lattice is an arena of word backpointers; index -1 is the empty history.
// This is the compact word-lattice representation the Token Issuer writes
// (the paper adopts the compact format of Price [22]).
type lattice struct {
	words  []int32
	prev   []int32
	frames []int32
}

// reset empties the arena for reuse, retaining capacity — lattices are part
// of the pooled per-decode scratch set.
func (l *lattice) reset() {
	l.words = l.words[:0]
	l.prev = l.prev[:0]
	l.frames = l.frames[:0]
}

func (l *lattice) add(word, prev, frame int32) int32 {
	l.words = append(l.words, word)
	l.prev = append(l.prev, prev)
	l.frames = append(l.frames, frame)
	return int32(len(l.words) - 1)
}

// backtrace returns the word sequence ending at entry idx along with the
// frame at which each word completed.
func (l *lattice) backtrace(idx int32) (words, ends []int32) {
	for i := idx; i >= 0; i = l.prev[i] {
		words = append(words, l.words[i])
		ends = append(ends, l.frames[i])
	}
	for i, j := 0, len(words)-1; i < j; i, j = i+1, j-1 {
		words[i], words[j] = words[j], words[i]
		ends[i], ends[j] = ends[j], ends[i]
	}
	return words, ends
}

// entries reports the number of lattice entries written (token-cache
// traffic in the accelerator model).
func (l *lattice) entries() int { return len(l.words) }
