package faultinject

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// stubScorer returns constant finite scores so poison is attributable.
type stubScorer struct{ senones int }

func (s *stubScorer) ScoreUtterance(frames [][]float32) [][]float32 {
	out := make([][]float32, len(frames))
	for f := range frames {
		row := make([]float32, s.senones+1)
		for i := range row {
			row[i] = -1
		}
		out[f] = row
	}
	return out
}
func (s *stubScorer) FLOPsPerFrame() float64 { return 1 }
func (s *stubScorer) Name() string           { return "stub" }

// TestMutateBytesDeterministic: the same seed must produce the same
// corruption — the property that makes fault-test failures reproducible.
func TestMutateBytesDeterministic(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog 0123456789")
	for seed := int64(0); seed < 20; seed++ {
		a := MutateBytes(rand.New(rand.NewSource(seed)), data)
		b := MutateBytes(rand.New(rand.NewSource(seed)), data)
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: mutations differ", seed)
		}
		if bytes.Equal(a, data) && len(a) == len(data) {
			t.Errorf("seed %d: mutation is a no-op", seed)
		}
	}
	if out := MutateBytes(rand.New(rand.NewSource(1)), nil); len(out) == 0 {
		t.Error("empty input should grow, not stay empty")
	}
}

// TestCorruptBundlePicksDeterministically: same seed, same file, same bytes.
func TestCorruptBundlePicksDeterministically(t *testing.T) {
	mk := func(t *testing.T) string {
		dir := t.TempDir()
		for _, n := range []string{"a.bin", "b.txt", "c.json"} {
			if err := os.WriteFile(filepath.Join(dir, n), []byte("content of "+n), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	d1, d2 := mk(t), mk(t)
	f1, err := CorruptBundle(d1, 7)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := CorruptBundle(d2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatalf("seed 7 corrupted %s and %s", f1, f2)
	}
	b1, _ := os.ReadFile(filepath.Join(d1, f1))
	b2, _ := os.ReadFile(filepath.Join(d2, f2))
	if !bytes.Equal(b1, b2) {
		t.Error("same seed produced different corrupted bytes")
	}
}

// TestNaNScorerInjects: poison appears at seeded positions, is NaN by
// default, and two runs with the same seed poison identically.
func TestNaNScorerInjects(t *testing.T) {
	frames := make([][]float32, 200)
	for i := range frames {
		frames[i] = []float32{0}
	}
	count := func(s *NaNScorer) int {
		var n int
		for _, row := range s.ScoreUtterance(frames) {
			for _, v := range row {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					n++
				}
			}
		}
		return n
	}
	s := &NaNScorer{Inner: &stubScorer{senones: 40}, Seed: 3}
	n1 := count(s)
	if n1 == 0 {
		t.Fatal("no poison injected over 200 frames at default rate")
	}
	s2 := &NaNScorer{Inner: &stubScorer{senones: 40}, Seed: 3}
	if n2 := count(s2); n2 != n1 {
		t.Errorf("same seed poisoned %d then %d entries", n1, n2)
	}
	inf := &NaNScorer{Inner: &stubScorer{senones: 40}, Seed: 3, Fault: FaultNegInf, Rate: 1}
	rows := inf.ScoreUtterance(frames[:5])
	var sawInf bool
	for _, row := range rows {
		for _, v := range row {
			if math.IsInf(float64(v), -1) {
				sawInf = true
			}
			if math.IsNaN(float64(v)) {
				t.Fatal("FaultNegInf injected NaN")
			}
		}
	}
	if !sawInf {
		t.Error("rate 1.0 injected nothing")
	}
	if inf.Name() != "stub+fault" || inf.FLOPsPerFrame() != 1 {
		t.Error("delegation broken")
	}
}
