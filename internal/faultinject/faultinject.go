// Package faultinject provides deterministic, seedable fault injectors for
// the robustness test harness: byte-level bundle corruption, scorer NaN/Inf
// bursts, and disk and reload failures under a live server (disk.go).
//
// Every injector is a pure function of its seed, so a failing fault test
// reproduces with the same seed — the injectors never read global
// randomness or the clock. They exist to prove the fault-tolerance
// contract: every injected fault must surface as a typed error or a
// recovered result, never an escaped panic or a hung batch.
package faultinject

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/acoustic"
)

// ---------------------------------------------------------------------------
// Byte-level corruption (model bundles, serialized graphs)

// MutateBytes returns a corrupted copy of data: one of bit-flip, byte
// overwrite, truncation, zero-run, or growth, chosen and placed by rng.
// Empty input grows by a few random bytes.
func MutateBytes(rng *rand.Rand, data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return randBytes(rng, rng.Intn(16)+1)
	}
	switch rng.Intn(5) {
	case 0: // single bit flip
		i := rng.Intn(len(out))
		out[i] ^= 1 << uint(rng.Intn(8))
	case 1: // byte overwrite
		out[rng.Intn(len(out))] = byte(rng.Intn(256))
	case 2: // truncation
		out = out[:rng.Intn(len(out))]
	case 3: // zero a run
		i := rng.Intn(len(out))
		n := rng.Intn(len(out)-i) + 1
		for j := i; j < i+n; j++ {
			out[j] = 0
		}
	default: // append garbage
		out = append(out, randBytes(rng, rng.Intn(64)+1)...)
	}
	return out
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// CorruptFile rewrites path with a seed-determined mutation of its
// contents.
func CorruptFile(path string, seed int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	return os.WriteFile(path, MutateBytes(rng, data), 0o644)
}

// CorruptBundle corrupts one seed-chosen regular file inside a model-bundle
// directory and reports which file it hit. Directory listing order is
// normalized, so the same seed always corrupts the same file the same way.
func CorruptBundle(dir string, seed int64) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var names []string
	for _, e := range entries {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return "", fmt.Errorf("faultinject: no regular files in %s", dir)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	name := names[rng.Intn(len(names))]
	if err := CorruptFile(filepath.Join(dir, name), rng.Int63()); err != nil {
		return "", err
	}
	return name, nil
}

// ---------------------------------------------------------------------------
// Scorer faults (NaN / Inf bursts)

// ScoreFault selects the poison value a NaNScorer injects.
type ScoreFault int

const (
	// FaultNaN injects IEEE NaN — the classic "untrained frame" failure.
	FaultNaN ScoreFault = iota
	// FaultPosInf injects +Inf (an impossibly good score).
	FaultPosInf
	// FaultNegInf injects -Inf (an impossibly bad score).
	FaultNegInf
)

func (f ScoreFault) value() float32 {
	switch f {
	case FaultPosInf:
		return float32(math.Inf(1))
	case FaultNegInf:
		return float32(math.Inf(-1))
	default:
		return float32(math.NaN())
	}
}

// NaNScorer wraps an acoustic.Scorer and poisons a seed-determined subset
// of score entries with NaN or Inf bursts — the fault a numerically
// misbehaving acoustic model feeds the search. Like all scorers it is not
// safe for concurrent use.
type NaNScorer struct {
	Inner acoustic.Scorer
	// Rate is the per-frame probability of starting a burst (default 0.05).
	Rate float64
	// Burst is how many consecutive senone entries a burst poisons
	// (default 8).
	Burst int
	// Fault selects the poison value.
	Fault ScoreFault
	// Seed makes the injection deterministic per scorer instance.
	Seed int64
}

// ScoreUtterance scores via the wrapped scorer, then applies the poison
// schedule (acoustic.Scorer interface).
func (s *NaNScorer) ScoreUtterance(frames [][]float32) [][]float32 {
	out := s.Inner.ScoreUtterance(frames)
	rate := s.Rate
	if rate == 0 {
		rate = 0.05
	}
	burst := s.Burst
	if burst == 0 {
		burst = 8
	}
	rng := rand.New(rand.NewSource(s.Seed))
	poison := s.Fault.value()
	for _, row := range out {
		if rng.Float64() >= rate || len(row) < 2 {
			continue
		}
		start := rng.Intn(len(row)-1) + 1 // senone IDs are 1-based
		for i := start; i < start+burst && i < len(row); i++ {
			row[i] = poison
		}
	}
	return out
}

// FLOPsPerFrame delegates to the wrapped scorer (acoustic.Scorer interface).
func (s *NaNScorer) FLOPsPerFrame() float64 { return s.Inner.FLOPsPerFrame() }

// Name labels the scorer in reports (acoustic.Scorer interface).
func (s *NaNScorer) Name() string { return s.Inner.Name() + "+fault" }
