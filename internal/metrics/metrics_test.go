package metrics

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestAlignBasics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ref, hyp []int32
		want     EditOps
	}{
		{"exact", []int32{1, 2, 3}, []int32{1, 2, 3}, EditOps{RefLen: 3}},
		{"one sub", []int32{1, 2, 3}, []int32{1, 9, 3}, EditOps{Sub: 1, RefLen: 3}},
		{"one del", []int32{1, 2, 3}, []int32{1, 3}, EditOps{Del: 1, RefLen: 3}},
		{"one ins", []int32{1, 3}, []int32{1, 2, 3}, EditOps{Ins: 1, RefLen: 2}},
		{"empty hyp", []int32{1, 2}, nil, EditOps{Del: 2, RefLen: 2}},
		{"empty ref", nil, []int32{1, 2}, EditOps{Ins: 2, RefLen: 0}},
		{"both empty", nil, nil, EditOps{}},
		{"total mismatch", []int32{1, 2}, []int32{3, 4}, EditOps{Sub: 2, RefLen: 2}},
	} {
		got := Align(tc.ref, tc.hyp)
		if got != tc.want {
			t.Errorf("%s: Align = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// Properties of edit distance: identity, bounded by max length, symmetry of
// error count under swapping ins/del, triangle-ish sanity.
func TestAlignProperties(t *testing.T) {
	gen := func(rng *rand.Rand) []int32 {
		s := make([]int32, rng.Intn(12))
		for i := range s {
			s[i] = int32(rng.Intn(5))
		}
		return s
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := gen(rng), gen(rng)
		ab := Align(a, b)
		ba := Align(b, a)
		if Align(a, a).Errors() != 0 {
			return false
		}
		// Edit distance is symmetric. (The op decomposition is not unique
		// among equal-cost alignments, so Ins/Del need not swap exactly.)
		if ab.Errors() != ba.Errors() {
			return false
		}
		maxLen := len(a)
		if len(b) > maxLen {
			maxLen = len(b)
		}
		if ab.Errors() > maxLen {
			return false
		}
		// Consistency: ops counts sum to the cost implied by length algebra:
		// len(hyp) = RefLen - Del + Ins.
		return len(b) == ab.RefLen-ab.Del+ab.Ins
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWERAccumulator(t *testing.T) {
	var acc WERAccumulator
	acc.Add([]int32{1, 2, 3, 4}, []int32{1, 2, 3, 4})
	acc.Add([]int32{1, 2, 3, 4}, []int32{1, 9, 3})
	if acc.Utterances() != 2 {
		t.Errorf("utterances = %d", acc.Utterances())
	}
	// 2 errors over 8 ref words = 25%.
	if got := acc.WER(); got != 25 {
		t.Errorf("WER = %v, want 25", got)
	}
	if acc.String() == "" {
		t.Error("empty String()")
	}
}

func TestWEREmptyIsZero(t *testing.T) {
	var acc WERAccumulator
	if acc.WER() != 0 {
		t.Error("empty accumulator WER != 0")
	}
}

func TestRTFAndAudioDuration(t *testing.T) {
	if d := AudioDuration(100); d != time.Second {
		t.Errorf("AudioDuration(100) = %v", d)
	}
	if r := RTF(time.Second, 10*time.Millisecond); r != 100 {
		t.Errorf("RTF = %v, want 100", r)
	}
	if r := RTF(time.Second, 0); r != 0 {
		t.Errorf("RTF with zero processing = %v", r)
	}
}

func TestMeanMax(t *testing.T) {
	mean, max := MeanMax([]time.Duration{time.Second, 3 * time.Second})
	if mean != 2*time.Second || max != 3*time.Second {
		t.Errorf("MeanMax = %v, %v", mean, max)
	}
	mean, max = MeanMax(nil)
	if mean != 0 || max != 0 {
		t.Error("MeanMax(nil) should be zero")
	}
}

func TestOracleWER(t *testing.T) {
	refs := [][]int32{{1, 2, 3}, {4, 5}}
	nbest := [][][]int32{
		{{1, 9, 3}, {1, 2, 3}}, // second hypothesis is exact
		{{4, 9}},               // best available has one substitution
	}
	if got := OracleWER(refs, nbest); got != 20 {
		t.Errorf("OracleWER = %v, want 20 (1 err / 5 words)", got)
	}
	// Empty N-best list counts as full deletion.
	if got := OracleWER([][]int32{{1, 2}}, [][][]int32{{}}); got != 100 {
		t.Errorf("OracleWER with no hypotheses = %v, want 100", got)
	}
	// Oracle can never exceed the 1-best WER.
	var acc WERAccumulator
	for i := range refs {
		acc.Add(refs[i], nbest[i][0])
	}
	if OracleWER(refs, nbest) > acc.WER() {
		t.Error("oracle WER exceeds 1-best WER")
	}
}

func TestThroughput(t *testing.T) {
	tp := Throughput{
		Utterances:   8,
		Frames:       4000, // 40 s of audio at 10 ms/frame
		Wall:         2 * time.Second,
		CacheHits:    75,
		CacheLookups: 100,
	}
	if got := tp.UtterancesPerSec(); got != 4 {
		t.Errorf("UtterancesPerSec = %v, want 4", got)
	}
	if got := tp.FramesPerSec(); got != 2000 {
		t.Errorf("FramesPerSec = %v, want 2000", got)
	}
	if got := tp.RTF(); got != 20 {
		t.Errorf("RTF = %v, want 20 (40s audio / 2s wall)", got)
	}
	if got := tp.CacheHitRate(); got != 0.75 {
		t.Errorf("CacheHitRate = %v, want 0.75", got)
	}
	s := tp.String()
	for _, want := range []string{"8 utts", "4.0 utt/s", "20.0x real time", "75.0% cache hit"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q; missing %q", s, want)
		}
	}

	// Zero value: no division blow-ups, no cache clause.
	var zero Throughput
	if zero.UtterancesPerSec() != 0 || zero.FramesPerSec() != 0 || zero.RTF() != 0 || zero.CacheHitRate() != 0 {
		t.Error("zero Throughput rates should all be 0")
	}
	if strings.Contains(zero.String(), "cache") {
		t.Errorf("zero String() mentions cache: %q", zero.String())
	}

	// Add accumulates every field.
	sum := zero
	sum.Add(tp)
	sum.Add(tp)
	if sum.Utterances != 16 || sum.Frames != 8000 || sum.Wall != 4*time.Second ||
		sum.CacheHits != 150 || sum.CacheLookups != 200 {
		t.Errorf("Add: %+v", sum)
	}
}

func TestSearchHealth(t *testing.T) {
	var s Search
	if !s.Healthy() {
		t.Error("zero Search should be healthy")
	}
	s.Add(Search{Rescues: 2, Failures: 1})
	s.Add(Search{Panics: 3, Canceled: 4, Rescues: 1})
	if s.Rescues != 3 || s.Failures != 1 || s.Panics != 3 || s.Canceled != 4 {
		t.Errorf("Add: %+v", s)
	}
	if s.Healthy() {
		t.Error("faulted Search reported healthy")
	}
	want := "search health: 3 rescues, 1 failures, 3 panics, 4 canceled"
	if s.String() != want {
		t.Errorf("String() = %q, want %q", s.String(), want)
	}
	for _, one := range []Search{{Rescues: 1}, {Failures: 1}, {Panics: 1}, {Canceled: 1}} {
		if one.Healthy() {
			t.Errorf("%+v reported healthy", one)
		}
	}
}

func TestAllocCountersDelta(t *testing.T) {
	a := AllocCounters{Bytes: 100, Objects: 10, GCs: 3}
	b := AllocCounters{Bytes: 250, Objects: 14, GCs: 3}
	d := b.Delta(a)
	if d.Bytes != 150 || d.Objects != 4 || d.GCs != 0 {
		t.Errorf("Delta = %+v", d)
	}
}

// TestReadMemoryFootprint sanity-checks the runtime/metrics-backed
// footprint snapshot: a running test binary has a live heap, a GC goal,
// and at least one goroutine.
func TestReadMemoryFootprint(t *testing.T) {
	fp := ReadMemoryFootprint()
	if fp.HeapLiveBytes == 0 {
		t.Error("HeapLiveBytes = 0")
	}
	if fp.HeapGoalBytes == 0 {
		t.Error("HeapGoalBytes = 0")
	}
	if fp.Goroutines == 0 {
		t.Error("Goroutines = 0")
	}
}
