package accel

import (
	"sort"

	"repro/internal/decoder"
	"repro/internal/energy"
	"repro/internal/semiring"
)

// Memory-map region bases. Regions are disjoint so one physical address
// space serves all streams, as in the real design.
const (
	baseAMStates uint64 = 0x0000_0000
	baseAMArcs   uint64 = 0x1000_0000
	baseLMStates uint64 = 0x2000_0000
	baseLMArcs   uint64 = 0x3000_0000
	baseStates   uint64 = baseAMStates // composed baseline reuses the state region
	baseArcs     uint64 = baseAMArcs
	baseTokens   uint64 = 0x4000_0000
	baseAcoustic uint64 = 0x5000_0000
)

// Stream classes for the Figure 11 bandwidth split.
const (
	StreamStates   = "STATES"
	StreamArcs     = "ARCS"
	StreamTokens   = "TOKENS"
	StreamAcoustic = "ACOUSTIC"
)

// Result is the simulator output for one utterance.
type Result struct {
	Words        []int32
	Cost         semiring.Weight
	ReachedFinal bool
	Frames       int

	Cycles  uint64
	Seconds float64

	Dec decoder.Stats

	Caches         map[string]CacheStats
	OffsetHits     uint64
	OffsetMisses   uint64
	OverflowTokens uint64
	DRAMReadBytes  uint64
	DRAMWriteBytes uint64
	DRAMByStream   map[string]uint64

	// EnergyJ is the per-component energy breakdown (Figure 10 categories).
	EnergyJ      map[string]float64
	TotalEnergyJ float64
	AvgPowerW    float64
	AreaMM2      float64
}

// BandwidthGBs returns achieved DRAM bandwidth in GB/s.
func (r *Result) BandwidthGBs() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return float64(r.DRAMReadBytes+r.DRAMWriteBytes) / r.Seconds / 1e9
}

// machine carries the shared microarchitectural state: caches, the offset
// table, DRAM counters and the timing model.
type machine struct {
	cfg Config

	state  *cache
	amArc  *cache
	lmArc  *cache
	token  *cache
	offtab *offsetTable

	// Totals.
	cycles         uint64
	dramReadBytes  uint64
	dramWriteBytes uint64
	byStream       map[string]uint64
	hashAccesses   uint64
	acousticReads  uint64
	fpOps          uint64
	pipeOps        uint64

	// Per-frame accumulators, reset by frameBarrier.
	frameCompute uint64
	frameMisses  uint64
	frameBytes   uint64
	frameTokens  uint64

	// overflowTokens counts tokens that exceeded the hash table's capacity
	// within one frame and spilled to the main-memory Overflow Buffer
	// (Section 3.2: "handling collisions and overflows ... as described in
	// the fully-composed design").
	overflowTokens uint64
}

func newMachine(cfg Config) *machine {
	return &machine{
		cfg:      cfg,
		state:    newCache("State", cfg.StateCache),
		amArc:    newCache("AMArc", cfg.AMArcCache),
		lmArc:    newCache("LMArc", cfg.LMArcCache),
		token:    newCache("Token", cfg.TokenCache),
		offtab:   newOffsetTable(cfg.OffsetEntries),
		byStream: make(map[string]uint64),
	}
}

// touch sends an access through a cache and charges DRAM for the misses.
func (m *machine) touch(c *cache, stream string, addr, size uint64, write bool) {
	misses := c.access(addr, size, write)
	if misses > 0 {
		bytes := uint64(misses) * uint64(c.cfg.LineBytes)
		m.frameMisses += uint64(misses)
		m.frameBytes += bytes
		m.byStream[stream] += bytes
		if write {
			m.dramWriteBytes += bytes
		} else {
			m.dramReadBytes += bytes
		}
	}
}

// compute charges pipeline cycles and generic pipeline-op energy.
func (m *machine) compute(cycles uint64) {
	m.frameCompute += cycles
	m.pipeOps += cycles
}

// overflowEntryBytes is the size of one spilled token record.
const overflowEntryBytes = 16

// noteTokenInsert tracks hash-table occupancy within a frame; inserts past
// the table's capacity spill to the DRAM Overflow Buffer, paying a write
// plus extra pipeline work.
func (m *machine) noteTokenInsert() {
	m.frameTokens++
	if m.frameTokens > uint64(m.cfg.HashEntries) {
		m.overflowTokens++
		m.frameBytes += overflowEntryBytes
		m.frameMisses++
		m.dramWriteBytes += overflowEntryBytes
		m.byStream[StreamTokens] += overflowEntryBytes
		m.compute(4)
	}
}

// acousticFrame models the per-frame DMA of acoustic scores from the shared
// main-memory buffer the GPU writes (Section 5.2) into the on-chip
// Acoustic Likelihood Buffer.
func (m *machine) acousticFrame(senones int) {
	bytes := uint64(senones) * 4
	m.frameBytes += bytes
	m.frameMisses += (bytes + uint64(64) - 1) / 64
	m.dramReadBytes += bytes
	m.byStream[StreamAcoustic] += bytes
}

// frameBarrier closes a frame: the pipeline overlaps compute with memory,
// so the frame costs the max of compute cycles and DRAM cycles (bounded by
// both latency×MLP and bandwidth), plus a fixed synchronization overhead.
func (m *machine) frameBarrier() {
	latencyBound := m.frameMisses * uint64(m.cfg.DRAMLatencyCycles) / uint64(m.cfg.MemInflight)
	bwBound := uint64(float64(m.frameBytes) / m.cfg.DRAMBytesPerCycle)
	dram := latencyBound
	if bwBound > dram {
		dram = bwBound
	}
	c := m.frameCompute
	if dram > c {
		c = dram
	}
	m.cycles += c + cyclesPerFrame
	m.frameCompute, m.frameMisses, m.frameBytes, m.frameTokens = 0, 0, 0, 0
}

// finalize computes the energy/power/area summary into a Result.
func (m *machine) finalize(res *Result) {
	res.Cycles = m.cycles
	res.Seconds = float64(m.cycles) / m.cfg.FreqHz
	res.Caches = map[string]CacheStats{
		"State": m.state.statsOrZero(),
		"AMArc": m.amArc.statsOrZero(),
		"LMArc": m.lmArc.statsOrZero(),
		"Token": m.token.statsOrZero(),
	}
	if m.offtab != nil {
		res.OffsetHits, res.OffsetMisses = m.offtab.hits, m.offtab.misses
	}
	res.OverflowTokens = m.overflowTokens
	res.DRAMReadBytes = m.dramReadBytes
	res.DRAMWriteBytes = m.dramWriteBytes
	res.DRAMByStream = m.byStream

	sec := res.Seconds
	e := map[string]float64{}
	e["StateCache"] = energy.Joules(m.state.dynamicPJ()) + energy.LeakageJoules(m.state.leakageMW(), sec)
	arcDyn := m.amArc.dynamicPJ() + m.lmArc.dynamicPJ()
	arcLeak := m.amArc.leakageMW() + m.lmArc.leakageMW()
	e["ArcCache"] = energy.Joules(arcDyn) + energy.LeakageJoules(arcLeak, sec)
	e["TokenCache"] = energy.Joules(m.token.dynamicPJ()) + energy.LeakageJoules(m.token.leakageMW(), sec)
	e["Hashes"] = energy.Joules(float64(m.hashAccesses)*energy.SRAMReadPJ(int64(m.cfg.HashBytes))) +
		energy.LeakageJoules(energy.SRAMLeakageMW(int64(m.cfg.HashBytes)), sec)
	acbDyn := float64(m.acousticReads) * energy.SRAMReadPJ(int64(m.cfg.AcousticBufBytes))
	pipeDyn := float64(m.pipeOps)*energy.PipelineOpPJ + float64(m.fpOps)*energy.FPAddPJ
	e["Pipeline"] = energy.Joules(pipeDyn+acbDyn) +
		energy.LeakageJoules(energy.PipelineLeakageMW+energy.SRAMLeakageMW(int64(m.cfg.AcousticBufBytes)), sec)
	if m.offtab != nil {
		probes := float64(m.offtab.hits + m.offtab.misses)
		e["OffsetTable"] = energy.Joules(probes*energy.SRAMReadPJ(m.offtab.sizeBytes())) +
			energy.LeakageJoules(energy.SRAMLeakageMW(m.offtab.sizeBytes()), sec)
	}
	e["MainMemory"] = energy.Joules(float64(m.dramReadBytes+m.dramWriteBytes)*energy.DRAMEnergyPerBytePJ) +
		energy.LeakageJoules(energy.DRAMBackgroundMW, sec)
	res.EnergyJ = e
	// Sum in name order: float addition is not associative, so map order
	// would move the total's low bits between runs.
	names := make([]string, 0, len(e))
	for k := range e {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		res.TotalEnergyJ += e[k]
	}
	if sec > 0 {
		res.AvgPowerW = res.TotalEnergyJ / sec
	}
	res.AreaMM2 = m.areaMM2()
}

// areaMM2 sums the design's SRAM and logic area.
func (m *machine) areaMM2() float64 {
	a := energy.PipelineAreaMM2
	for _, c := range []*cache{m.state, m.amArc, m.lmArc, m.token} {
		if c != nil {
			a += energy.SRAMAreaMM2(int64(c.cfg.SizeBytes))
		}
	}
	a += energy.SRAMAreaMM2(int64(m.cfg.HashBytes))
	a += energy.SRAMAreaMM2(int64(m.cfg.AcousticBufBytes))
	if m.offtab != nil {
		a += energy.SRAMAreaMM2(m.offtab.sizeBytes())
	}
	return a
}

// bitSpan converts a (bit offset, bit width) field into the byte address
// range it occupies.
func bitSpan(base, bitOff uint64, bits uint) (addr, size uint64) {
	addr = base + bitOff/8
	end := base + (bitOff+uint64(bits)+7)/8
	return addr, end - addr
}
