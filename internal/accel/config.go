// Package accel is a cycle-approximate simulator of the two hardware
// designs the paper evaluates: UNFOLD (on-the-fly AM∘LM composition over
// the compressed datasets, with an Offset Lookup Table and preemptive
// back-off pruning) and the fully-composed Viterbi accelerator of Yazdani
// et al. MICRO-49 ("Reza et al."), which searches one offline-composed
// WFST. Both designs run one simulated search (search.go) over their own
// memory layouts.
//
// The simulator executes the real decode (it is also a functional emulator,
// like the paper's; Section 4) while charging pipeline cycles and driving
// set-associative cache models plus a DRAM channel, producing every
// quantity the evaluation section plots: per-cache miss ratios (Fig 6),
// Offset Lookup Table behaviour (Fig 7), search energy (Fig 9), power
// breakdown (Fig 10), memory bandwidth by stream (Fig 11), and decode time
// (Table 5).
package accel

// CacheConfig describes one set-associative cache.
type CacheConfig struct {
	SizeBytes int
	Assoc     int
	LineBytes int
}

// Config mirrors the paper's Table 3 accelerator parameters.
type Config struct {
	Name   string
	FreqHz float64

	StateCache CacheConfig
	AMArcCache CacheConfig // the unified Arc Cache in the baseline design
	LMArcCache CacheConfig // zero-size in the baseline design
	TokenCache CacheConfig

	AcousticBufBytes int
	HashBytes        int
	HashEntries      int

	// OffsetEntries is the Offset Lookup Table size (0 disables it; the
	// baseline design has none). Each entry is 6 bytes (valid + 24-bit tag
	// + 23-bit offset).
	OffsetEntries int

	// MemInflight is the memory controller's in-flight request capacity
	// (the memory-level parallelism bound).
	MemInflight int
	// DRAMLatencyCycles is the average miss-to-data latency in core cycles.
	DRAMLatencyCycles int
	// DRAMBytesPerCycle is the channel bandwidth at the core clock.
	DRAMBytesPerCycle float64
}

// Timing constants: issue costs per pipeline operation, in cycles. The
// pipeline is modelled as fully overlapped with memory (the frame's cycle
// count is the max of compute and DRAM time) plus a fixed per-frame
// synchronization overhead.
const (
	cyclesPerToken     = 2 // State Issuer: fetch + prune check
	cyclesPerArc       = 1 // Arc Issuer / Likelihood Evaluation, pipelined
	cyclesPerProbe     = 2 // one binary-search probe (AGU + fetch + compare)
	cyclesPerBackoff   = 2 // back-off arc fetch + weight apply + threshold check
	cyclesOffsetLookup = 1 // Offset Lookup Table probe
	cyclesPerNewToken  = 2 // Token Issuer: hash insert + lattice write
	cyclesPerFrame     = 32
)

// OffsetEntryBytes is the SRAM cost of one Offset Lookup Table entry.
const OffsetEntryBytes = 6

// UnfoldConfig returns the paper's UNFOLD configuration (Table 3, left).
func UnfoldConfig() Config {
	return Config{
		Name:       "UNFOLD",
		FreqHz:     800e6,
		StateCache: CacheConfig{SizeBytes: 256 << 10, Assoc: 4, LineBytes: 64},
		AMArcCache: CacheConfig{SizeBytes: 512 << 10, Assoc: 8, LineBytes: 64},
		LMArcCache: CacheConfig{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64},
		TokenCache: CacheConfig{SizeBytes: 128 << 10, Assoc: 2, LineBytes: 64},

		AcousticBufBytes: 64 << 10,
		HashBytes:        576 << 10,
		HashEntries:      32 << 10,
		OffsetEntries:    32 << 10,

		MemInflight:       32,
		DRAMLatencyCycles: 120, // ~150 ns at 800 MHz
		DRAMBytesPerCycle: 16,  // ~12.8 GB/s LPDDR4 channel
	}
}

// BaselineConfig returns the fully-composed accelerator of Yazdani et al.
// (Table 3, right): bigger caches, a single unified Arc Cache, no LM cache
// and no Offset Lookup Table, at 600 MHz.
func BaselineConfig() Config {
	return Config{
		Name:       "Reza et al.",
		FreqHz:     600e6,
		StateCache: CacheConfig{SizeBytes: 512 << 10, Assoc: 4, LineBytes: 64},
		AMArcCache: CacheConfig{SizeBytes: 1 << 20, Assoc: 4, LineBytes: 64},
		TokenCache: CacheConfig{SizeBytes: 512 << 10, Assoc: 2, LineBytes: 64},

		AcousticBufBytes: 64 << 10,
		HashBytes:        768 << 10,
		HashEntries:      32 << 10,

		MemInflight:       32,
		DRAMLatencyCycles: 90, // same ~150 ns at 600 MHz
		DRAMBytesPerCycle: 21, // same channel at the slower core clock
	}
}
