package pool

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/acoustic"
	"repro/internal/decoder"
	"repro/internal/task"
)

// poolFixture builds a small task once; tests construct pools on top.
type poolFixture struct {
	tk     *task.Task
	scores [][][]float32
}

var (
	fixOnce sync.Once
	fix     *poolFixture
)

func getFixture(t testing.TB) *poolFixture {
	t.Helper()
	fixOnce.Do(func() {
		tk, err := task.Build(task.Spec{
			Name:           "pool-test",
			Vocab:          30,
			Phones:         12,
			TrainSentences: 250,
			TestUtterances: 8,
			LMMinCount:     2, // force back-off traffic through the cache
			Seed:           42,
		})
		if err != nil {
			panic(err)
		}
		f := &poolFixture{tk: tk}
		for _, u := range tk.Test {
			f.scores = append(f.scores, tk.Scorer.ScoreUtterance(u.Frames))
		}
		fix = f
	})
	return fix
}

// TestDecodePoolMatchesSequential is the engine's core property: a pool
// with any worker count produces byte-identical transcripts (and equal
// costs) to a plain sequential OnTheFly decoder, because cache contents
// never influence an offset lookup's answer.
func TestDecodePoolMatchesSequential(t *testing.T) {
	f := getFixture(t)
	seq, err := decoder.NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, decoder.Config{PreemptivePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*decoder.Result, len(f.scores))
	for i, sc := range f.scores {
		want[i] = seq.Decode(sc)
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p, err := New(f.tk.AM.G, f.tk.LMGraph.G, Config{
				Workers: workers,
				Decoder: decoder.Config{PreemptivePruning: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			// Two rounds: cold and warm offset tables must both match the
			// sequential transcripts.
			for round := 0; round < 2; round++ {
				batch, err := p.Decode(f.scores)
				if err != nil {
					t.Fatal(err)
				}
				if len(batch.Results) != len(want) {
					t.Fatalf("round %d: %d results, want %d", round, len(batch.Results), len(want))
				}
				for i, r := range batch.Results {
					if fmt.Sprint(r.Words) != fmt.Sprint(want[i].Words) {
						t.Fatalf("round %d utt %d: pool %v vs sequential %v", round, i, r.Words, want[i].Words)
					}
					if r.Cost != want[i].Cost {
						t.Errorf("round %d utt %d: cost %v vs %v", round, i, r.Cost, want[i].Cost)
					}
				}
			}
		})
	}
}

// TestDecodePoolThroughputAndCache sanity-checks the batch aggregates: all
// frames accounted for, wall time positive, and a warm second batch hitting
// the offset table harder than the cold first one. One worker, so the second
// batch provably runs on the table the first one warmed.
func TestDecodePoolThroughputAndCache(t *testing.T) {
	f := getFixture(t)
	p, err := New(f.tk.AM.G, f.tk.LMGraph.G, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p.Decode(f.scores)
	if err != nil {
		t.Fatal(err)
	}
	var frames int
	for _, sc := range f.scores {
		frames += len(sc)
	}
	if cold.Throughput.Frames != frames {
		t.Errorf("throughput frames %d, want %d", cold.Throughput.Frames, frames)
	}
	if cold.Throughput.Utterances != len(f.scores) {
		t.Errorf("throughput utts %d, want %d", cold.Throughput.Utterances, len(f.scores))
	}
	if cold.Throughput.Wall <= 0 || cold.Throughput.UtterancesPerSec() <= 0 {
		t.Errorf("non-positive wall/rate: %+v", cold.Throughput)
	}
	if cold.Throughput.CacheLookups == 0 {
		t.Fatal("no offset-table lookups recorded; memo path not exercised")
	}
	if got, want := cold.Throughput.CacheLookups, cold.Decoder.MemoHits+cold.Decoder.MemoMisses; got != want {
		t.Errorf("throughput lookups %d, decoder stats say %d", got, want)
	}
	warm, err := p.Decode(f.scores)
	if err != nil {
		t.Fatal(err)
	}
	// Per-batch counters: the second batch's hit rate must beat the cold
	// batch's (the table persists across the worker's utterances).
	if warm.Throughput.CacheHitRate() <= cold.Throughput.CacheHitRate() {
		t.Errorf("warm hit rate %.3f not above cold %.3f",
			warm.Throughput.CacheHitRate(), cold.Throughput.CacheHitRate())
	}
	if p.Workers() != 1 {
		t.Errorf("Workers() = %d, want 1", p.Workers())
	}
}

// TestDecodePoolConcurrentBatches overlaps many Decode calls on one pool —
// the serving pattern, one small batch per HTTP request — and checks that
// worker checkout keeps every result byte-identical to a sequential decode.
// Run under -race this is the pool's overlap-safety proof.
func TestDecodePoolConcurrentBatches(t *testing.T) {
	f := getFixture(t)
	want := make([][]int32, len(f.scores))
	seq, err := decoder.NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, decoder.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range f.scores {
		want[i] = seq.Decode(sc).Words
	}

	p, err := New(f.tk.AM.G, f.tk.LMGraph.G, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 6
	const rounds = 4
	var wg sync.WaitGroup
	errCh := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				utt := (c + r) % len(f.scores)
				b, err := p.Decode(f.scores[utt : utt+1])
				if err != nil || b.Failed() != 0 {
					errCh <- fmt.Errorf("caller %d round %d: err=%v failed=%d", c, r, err, b.Failed())
					return
				}
				if fmt.Sprint(b.Results[0].Words) != fmt.Sprint(want[utt]) {
					errCh <- fmt.Errorf("caller %d round %d: utt %d diverged from sequential", c, r, utt)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// Every worker must be back on the free list.
	if got := len(p.idle); got != p.Workers() {
		t.Errorf("free list holds %d workers after quiescence, want %d", got, p.Workers())
	}
}

// TestDecodePoolPreset checks the degraded-preset path: a preset batch
// matches a pool configured at that operating point, and the very next
// full-quality batch on the same workers is byte-identical to sequential —
// presets never leak across batches.
func TestDecodePoolPreset(t *testing.T) {
	f := getFixture(t)
	preset := decoder.Config{}.DegradedPreset(2)
	oracle, err := New(f.tk.AM.G, f.tk.LMGraph.G, Config{Workers: 2,
		Decoder: decoder.Config{Beam: preset.Beam, MaxActive: preset.MaxActive}})
	if err != nil {
		t.Fatal(err)
	}
	wantDeg, err := oracle.Decode(f.scores)
	if err != nil {
		t.Fatal(err)
	}

	p, err := New(f.tk.AM.G, f.tk.LMGraph.G, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	full1, err := p.Decode(f.scores)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := p.DecodePresetContext(context.Background(), f.scores, &preset)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.scores {
		if fmt.Sprint(deg.Results[i].Words) != fmt.Sprint(wantDeg.Results[i].Words) {
			t.Errorf("utt %d: preset batch %v != equivalently configured pool %v",
				i, deg.Results[i].Words, wantDeg.Results[i].Words)
		}
	}
	full2, err := p.Decode(f.scores)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.scores {
		if fmt.Sprint(full2.Results[i].Words) != fmt.Sprint(full1.Results[i].Words) {
			t.Errorf("utt %d: full-quality decode changed after a preset batch", i)
		}
	}
}

// TestAllocsPoolDecode is the worker pool's allocation gate: a warm
// 4-worker pool decoding a 16-utterance batch pays a fixed bill per
// utterance (result and error slots, Result construction, the backtrace)
// and nothing per frame. Measured: 151 objects per batch, 9.4 per
// utterance, and 179 with every utterance doubled in length (longer
// backtraces). Both limits carry 1.25x headroom over those counts.
func TestAllocsPoolDecode(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const (
		headroom   = 1.25
		perUttBase = 151.0 / 16
	)
	f := getFixture(t)
	p, err := New(f.tk.AM.G, f.tk.LMGraph.G, Config{Workers: 4, Decoder: decoder.Config{PreemptivePruning: true}})
	if err != nil {
		t.Fatal(err)
	}
	batch := append(append([][][]float32(nil), f.scores...), f.scores...)
	long := make([][][]float32, len(batch))
	for i, sc := range batch {
		long[i] = append(append([][]float32(nil), sc...), sc...)
	}
	perBatch := func(b [][][]float32) float64 {
		if _, err := p.Decode(b); err != nil { // warm every worker's scratch and offset table
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() { p.Decode(b) })
	}
	short, doubled := perBatch(batch), perBatch(long)
	perUtt := short / float64(len(batch))
	t.Logf("%d-utterance batch: %.0f objects (%.1f per utterance); doubled frames: %.0f", len(batch), short, perUtt, doubled)
	if perUtt > headroom*perUttBase {
		t.Errorf("pool decode allocates %.1f objects per utterance, want <= %.1f", perUtt, headroom*perUttBase)
	}
	if doubled > headroom*short {
		t.Errorf("doubling every utterance's frames grew the batch bill from %.0f to %.0f objects, want <= %.0f",
			short, doubled, headroom*short)
	}
}

// panicScorer panics on the utterance whose first frame is bad and scores
// every other one through the scorer it wraps (a wrapper, so
// acoustic.Utterance scores its chunks whole through ScoreUtterance).
type panicScorer struct {
	acoustic.Scorer
	bad *float32
}

func (p panicScorer) ScoreUtterance(frames [][]float32) [][]float32 {
	if &frames[0][0] == p.bad {
		panic("scorer fault")
	}
	return p.Scorer.ScoreUtterance(frames)
}

// TestDecodeFeaturesMatchesScores: a feature batch, each worker scoring its
// utterance as the search reads it, returns what the pre-scored batch
// returns — words, word ends, cost bits, finality and every search count
// but the offset table's (each worker's table is warm in its own way) — for
// any worker count, cold and warm. A scorer that panics on one utterance
// fails that utterance alone, as a search panic does.
func TestDecodeFeaturesMatchesScores(t *testing.T) {
	f := getFixture(t)
	feats := make([][][]float32, len(f.tk.Test))
	for i, u := range f.tk.Test {
		feats[i] = u.Frames
	}
	seq, err := decoder.NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, decoder.Config{PreemptivePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	searchWork := func(r *decoder.Result) decoder.Stats {
		st := r.Stats.Search()
		st.MemoHits, st.MemoMisses, st.LMProbes = 0, 0, 0
		return st
	}
	for _, workers := range []int{1, 2, 4} {
		p, err := New(f.tk.AM.G, f.tk.LMGraph.G, Config{Workers: workers, Decoder: decoder.Config{PreemptivePruning: true}})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			batch, err := p.DecodeFeatures(context.Background(), f.tk.Scorer, feats, nil, nil)
			if err != nil || batch.Failed() != 0 {
				t.Fatalf("workers %d round %d: %v, %d failed", workers, round, err, batch.Failed())
			}
			for i, got := range batch.Results {
				want := seq.Decode(f.scores[i])
				if fmt.Sprint(got.Words, got.WordEnds, got.ReachedFinal) != fmt.Sprint(want.Words, want.WordEnds, want.ReachedFinal) ||
					math.Float32bits(float32(got.Cost)) != math.Float32bits(float32(want.Cost)) ||
					searchWork(got) != searchWork(want) {
					t.Errorf("workers %d round %d utt %d: features %v at %v cost %v %+v, scores %v at %v cost %v %+v",
						workers, round, i, got.Words, got.WordEnds, got.Cost, searchWork(got),
						want.Words, want.WordEnds, want.Cost, searchWork(want))
				}
			}
		}
	}

	p, err := New(f.tk.AM.G, f.tk.LMGraph.G, Config{Workers: 2, Decoder: decoder.Config{PreemptivePruning: true}})
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := p.DecodeFeatures(context.Background(), panicScorer{f.tk.Scorer, &feats[2][0][0]}, feats, nil, nil)
	for i, e := range batch.Errors {
		switch {
		case i == 2 && (e == nil || e.Stage != StageSearch):
			t.Errorf("utt 2: error %v, want a StageSearch fault", e)
		case i != 2 && (e != nil || fmt.Sprint(batch.Results[i].Words) != fmt.Sprint(seq.Decode(f.scores[i]).Words)):
			t.Errorf("utt %d: error %v next to a scorer fault", i, e)
		}
	}
}
