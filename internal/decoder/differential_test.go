package decoder

import (
	"fmt"
	"testing"

	"repro/internal/acoustic"
	"repro/internal/task"
	"repro/internal/wfst"
)

// frameSnap is one captured frontier: the token set after the initial
// epsilon closure (frame -1) or after a decoded frame, in iteration order.
type frameSnap struct {
	frame int
	keys  []uint64
	toks  []token
}

// captureFrames installs a frameHook on d that deep-copies every reported
// frontier.
func captureFrames(d *OnTheFly) *[]frameSnap {
	snaps := &[]frameSnap{}
	d.frameHook = func(frame int, keys []uint64, toks []token) {
		*snaps = append(*snaps, frameSnap{
			frame: frame,
			keys:  append([]uint64(nil), keys...),
			toks:  append([]token(nil), toks...),
		})
	}
	return snaps
}

// diffConfigs are the search configurations the differential harness sweeps:
// every pruning and lookup feature that touches the frontier code paths.
var diffConfigs = []struct {
	name string
	cfg  Config
}{
	{"default", Config{}},
	{"preemptive", Config{PreemptivePruning: true}},
	{"tight-histogram", Config{MaxActive: 12}},
	{"tight-beam", Config{Beam: 6}},
	{"binary-lookup", Config{Lookup: LookupBinary, PreemptivePruning: true}},
	{"linear-lookup", Config{Lookup: LookupLinear}},
	{"rescue", Config{Beam: 6, RescueWidenings: 3}},
}

// TestDifferentialStoreVsReference is the differential property test locking
// down the zero-allocation frontier: across seeded synthetic tasks and every
// config above, Decode (tokenStore path) and DecodeReference (retained map
// frontier) must agree exactly — hypotheses, word end frames, cost bits,
// finality, search statistics, and the entire per-frame token frontier
// including iteration order. Any divergence in the store's hashing, growth,
// pruning compaction or closure ordering shows up here as a frame-level diff.
// Each seed runs twice: on-the-fly over its AM and LM, and the fully-composed
// baseline (NewComposed) over their offline composition.
func TestDifferentialStoreVsReference(t *testing.T) {
	seeds := []int64{201, 202, 203, 204, 205, 206, 207, 208}
	total := 0
	for _, seed := range seeds {
		tk, err := task.Build(task.Spec{
			Name:           fmt.Sprintf("diff-%d", seed),
			Vocab:          24,
			Phones:         10,
			TrainSentences: 160,
			TestUtterances: 1,
			LMMinCount:     2,
			Seed:           seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		composed, err := wfst.Compose(tk.AM.G, tk.LMGraph.G, wfst.ComposeOptions{MaxStates: 2_000_000})
		if err != nil {
			t.Fatal(err)
		}
		scores := tk.Scorer.ScoreUtterance(tk.Test[0].Frames)
		searches := []struct {
			name string
			new  func(Config) (*OnTheFly, error)
		}{
			{"", func(cfg Config) (*OnTheFly, error) { return NewOnTheFly(tk.AM.G, tk.LMGraph.G, cfg) }},
			{"composed/", func(cfg Config) (*OnTheFly, error) { return NewComposed(composed, cfg) }},
		}
		for _, search := range searches {
			for _, tc := range diffConfigs {
				total++
				t.Run(fmt.Sprintf("seed%d/%s%s", seed, search.name, tc.name), func(t *testing.T) {
					in := scores
					if tc.cfg.RescueWidenings > 0 && len(in) > 2 {
						// Poison one frame so the rescue/skip machinery runs on
						// both implementations.
						in = poisonFrame(in, len(in)/2)
					}
					// Separate decoder instances: the offset memo persists across
					// utterances, so sharing one would skew hit/miss statistics
					// between the two runs.
					dStore, err := search.new(tc.cfg)
					if err != nil {
						t.Fatal(err)
					}
					dRef, err := search.new(tc.cfg)
					if err != nil {
						t.Fatal(err)
					}
					storeSnaps := captureFrames(dStore)
					refSnaps := captureFrames(dRef)

					got := dStore.Decode(in)
					want := dRef.DecodeReference(in)

					if got.Cost != want.Cost {
						t.Errorf("cost: store %v, reference %v", got.Cost, want.Cost)
					}
					if got.ReachedFinal != want.ReachedFinal {
						t.Errorf("finality: store %v, reference %v", got.ReachedFinal, want.ReachedFinal)
					}
					if !equalInt32s(got.Words, want.Words) {
						t.Errorf("words: store %v, reference %v", got.Words, want.Words)
					}
					if !equalInt32s(got.WordEnds, want.WordEnds) {
						t.Errorf("word ends: store %v, reference %v", got.WordEnds, want.WordEnds)
					}
					if gs, ws := got.Stats, want.Stats; gs != ws {
						t.Errorf("stats: store %+v, reference %+v", gs, ws)
					}
					compareSnaps(t, *storeSnaps, *refSnaps)
				})
			}
		}
	}
	if total < 50 {
		t.Fatalf("differential sweep shrank to %d cases; keep it at 50+", total)
	}
}

// TestDifferentialStreamVsReference checks the incremental path through the
// same oracle: a Stream fed frame by frame must finish with the reference
// result.
func TestDifferentialStreamVsReference(t *testing.T) {
	f := getFixture(t, 42)
	for _, tc := range diffConfigs {
		t.Run(tc.name, func(t *testing.T) {
			dStream, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			dRef, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, scores := range f.scores {
				s := dStream.NewStream()
				for _, frame := range scores {
					if err := s.Push(frame); err != nil {
						t.Fatal(err)
					}
				}
				got := s.Finish()
				want := dRef.DecodeReference(scores)
				if got.Cost != want.Cost || !equalInt32s(got.Words, want.Words) {
					t.Errorf("utt %d: stream (%v, %v) vs reference (%v, %v)",
						i, got.Words, got.Cost, want.Words, want.Cost)
				}
				if gs, ws := got.Stats, want.Stats; gs != ws {
					t.Errorf("utt %d stats: stream %+v, reference %+v", i, gs, ws)
				}
			}
		})
	}
}

// decodeChunked is the server's /v1/stream loop on one decoder: the
// features scored k frames at a time through one acoustic.Utterance (the
// scorer's state carried across chunks), each chunk's rows pushed into a
// Stream.
func decodeChunked(t testing.TB, d *OnTheFly, sc acoustic.Scorer, frames [][]float32, k int) *Result {
	t.Helper()
	s := d.NewStream()
	u := acoustic.NewUtterance(sc)
	defer u.Close()
	for i := 0; i < len(frames); i += k {
		for _, row := range u.Score(frames[i:min(i+k, len(frames))]) {
			if err := s.Push(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s.Finish()
}

// decodeInterleaved decodes utts through width streams that take turns, the
// server's concurrent /v1/stream connections serialised: each round pushes
// one chunk into every open stream (slot j's chunks are j+1 frames, so the
// streams' chunk edges differ), and a finished stream's slot takes the next
// utterance at once. Each stream scores through its own acoustic.Utterance
// on the shared scorer; newDec returns utterance i's decoder.
func decodeInterleaved(t testing.TB, sc acoustic.Scorer, utts [][][]float32, width int, newDec func(i int) *OnTheFly) []*Result {
	t.Helper()
	type open struct {
		utt, pos int
		s        *Stream
		u        *acoustic.Utterance
	}
	res := make([]*Result, len(utts))
	slots := make([]*open, width)
	next := 0
	for active := true; active; {
		active = false
		for j := range slots {
			if slots[j] == nil && next < len(utts) {
				slots[j] = &open{utt: next, s: newDec(next).NewStream(), u: acoustic.NewUtterance(sc)}
				next++
			}
			o := slots[j]
			if o == nil {
				continue
			}
			active = true
			frames := utts[o.utt]
			end := min(o.pos+j+1, len(frames))
			for _, row := range o.u.Score(frames[o.pos:end]) {
				if err := o.s.Push(row); err != nil {
					t.Fatal(err)
				}
			}
			if o.pos = end; o.pos == len(frames) {
				res[o.utt] = o.s.Finish()
				o.u.Close()
				slots[j] = nil
			}
		}
	}
	return res
}

// TestDifferentialLanesVsSolo is the interleaved-vs-solo oracle: across
// seeded tasks, every search configuration, and 1, 2 or 4
// interleaved streams (decodeInterleaved: chunked scoring through one
// Utterance per stream, frontiers stepped per stream), utterances must match
// solo decodes byte-for-byte — hypotheses, word end frames, cost bits,
// finality, search statistics including lattice-entry counts, and the
// entire per-frame token frontier (keys, costs, lattice indices, iteration
// order) captured through the frameHook seam. Utterances outnumber streams,
// so a slot opens a new stream while the others are mid-utterance.
func TestDifferentialLanesVsSolo(t *testing.T) {
	seeds := []int64{211, 212}
	widths := []int{1, 2, 4}
	total := 0
	for _, seed := range seeds {
		tk, err := task.Build(task.Spec{
			Name:           fmt.Sprintf("lane-diff-%d", seed),
			Vocab:          24,
			Phones:         10,
			TrainSentences: 160,
			TestUtterances: 5,
			LMMinCount:     2,
			Seed:           seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		utts := make([][][]float32, len(tk.Test))
		for i, u := range tk.Test {
			utts[i] = u.Frames
		}
		for _, tc := range diffConfigs {
			for _, width := range widths {
				total++
				t.Run(fmt.Sprintf("seed%d/%s/width%d", seed, tc.name, width), func(t *testing.T) {
					// Solo baseline: a fresh decoder per utterance (memo cold),
					// frontiers captured per frame.
					type soloRun struct {
						res   *Result
						snaps *[]frameSnap
					}
					solo := make([]soloRun, len(tk.Test))
					for i, u := range tk.Test {
						d, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, tc.cfg)
						if err != nil {
							t.Fatal(err)
						}
						snaps := captureFrames(d)
						solo[i] = soloRun{res: d.Decode(tk.Scorer.ScoreUtterance(u.Frames)), snaps: snaps}
					}

					// Interleaved run: each utterance gets its own fresh
					// decoder (same memo story as the baseline) with its own
					// frontier capture.
					laneSnaps := make([]*[]frameSnap, len(tk.Test))
					laneRes := decodeInterleaved(t, tk.Scorer, utts, width, func(i int) *OnTheFly {
						d, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, tc.cfg)
						if err != nil {
							t.Fatal(err)
						}
						laneSnaps[i] = captureFrames(d)
						return d
					})

					for i := range tk.Test {
						got, want := laneRes[i], solo[i].res
						if got == nil {
							t.Fatalf("utt %d: no stream result", i)
						}
						if got.Cost != want.Cost {
							t.Errorf("utt %d cost: stream %v, solo %v", i, got.Cost, want.Cost)
						}
						if got.ReachedFinal != want.ReachedFinal {
							t.Errorf("utt %d finality: stream %v, solo %v", i, got.ReachedFinal, want.ReachedFinal)
						}
						if !equalInt32s(got.Words, want.Words) {
							t.Errorf("utt %d words: stream %v, solo %v", i, got.Words, want.Words)
						}
						if !equalInt32s(got.WordEnds, want.WordEnds) {
							t.Errorf("utt %d word ends: stream %v, solo %v", i, got.WordEnds, want.WordEnds)
						}
						if gs, ws := got.Stats, want.Stats; gs != ws {
							t.Errorf("utt %d stats: stream %+v, solo %+v", i, gs, ws)
						}
						compareSnaps(t, *laneSnaps[i], *solo[i].snaps)
					}
				})
			}
		}
	}
	if total < 30 {
		t.Fatalf("interleaved differential sweep shrank to %d cases; keep it at 30+", total)
	}
}

// comparePipelineResults asserts two results are byte-identical under the
// deterministic search view.
func comparePipelineResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no pipelined result", label)
	}
	if got.Cost != want.Cost {
		t.Errorf("%s cost: pipelined %v, sync %v", label, got.Cost, want.Cost)
	}
	if got.ReachedFinal != want.ReachedFinal {
		t.Errorf("%s finality: pipelined %v, sync %v", label, got.ReachedFinal, want.ReachedFinal)
	}
	if !equalInt32s(got.Words, want.Words) {
		t.Errorf("%s words: pipelined %v, sync %v", label, got.Words, want.Words)
	}
	if !equalInt32s(got.WordEnds, want.WordEnds) {
		t.Errorf("%s word ends: pipelined %v, sync %v", label, got.WordEnds, want.WordEnds)
	}
	if gs, ws := got.Stats, want.Stats; gs != ws {
		t.Errorf("%s stats: pipelined %+v, sync %+v", label, gs, ws)
	}
}

// TestDifferentialPipelinedVsSynchronous is the chunked-vs-whole oracle for
// the stream path with chunks scored alone (what acoustic.Utterance does for
// a scorer that is not a window scorer): features scored in k-frame windows,
// each window its own ScoreUtterance call (a partial block of the blocked
// kernel when k < 16), and the rows searched as they arrive
// must match the synchronous path — score everything with ScoreUtterance,
// then Decode — byte-for-byte: hypotheses, word end frames, cost bits,
// finality, search statistics, and the entire per-frame token frontier
// captured through the frameHook seam, the rescue case's poisoned frame
// included.
func TestDifferentialPipelinedVsSynchronous(t *testing.T) {
	seeds := []int64{221, 222, 223}
	windows := []int{1, 3, 8}
	total := 0
	for _, seed := range seeds {
		tk, err := task.Build(task.Spec{
			Name:           fmt.Sprintf("pipe-diff-%d", seed),
			Vocab:          24,
			Phones:         10,
			TrainSentences: 160,
			TestUtterances: 1,
			LMMinCount:     2,
			Seed:           seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		frames := tk.Test[0].Frames
		for _, tc := range diffConfigs {
			for _, k := range windows {
				total++
				t.Run(fmt.Sprintf("seed%d/%s/k%d", seed, tc.name, k), func(t *testing.T) {
					in := frames
					if tc.cfg.RescueWidenings > 0 && len(in) > 2 {
						// Poison one FEATURE frame: the scorer turns it into an
						// all-NaN score row on both paths.
						in = poisonFrame(in, len(in)/2)
					}
					dSync, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, tc.cfg)
					if err != nil {
						t.Fatal(err)
					}
					dPipe, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, tc.cfg)
					if err != nil {
						t.Fatal(err)
					}
					syncSnaps := captureFrames(dSync)
					pipeSnaps := captureFrames(dPipe)

					want := dSync.Decode(tk.Scorer.ScoreUtterance(in))
					var rows [][]float32
					for i := 0; i < len(in); i += k {
						rows = append(rows, tk.Scorer.ScoreUtterance(in[i:min(i+k, len(in))])...)
					}
					s := dPipe.NewStream()
					for _, row := range rows {
						if err := s.Push(row); err != nil {
							t.Fatal(err)
						}
					}
					got := s.Finish()

					comparePipelineResults(t, "decode", got, want)
					compareSnaps(t, *pipeSnaps, *syncSnaps)
				})
			}
		}
	}
	if total < 50 {
		t.Fatalf("pipeline differential sweep shrank to %d cases; keep it at 50+", total)
	}
}

// TestDifferentialPipelineScorers runs the chunked-vs-whole oracle over the
// dense scorers on the path that carries scorer state across chunks: a
// Stream fed k-frame chunks scored through one acoustic.Utterance (the
// server's /v1/stream loop) must match a solo decode of the whole
// utterance. The RNN case is the sharp one: its recurrence must carry across
// chunk boundaries bitwise, including a chunk larger than the whole
// utterance.
func TestDifferentialPipelineScorers(t *testing.T) {
	for _, kind := range []task.ScorerKind{task.ScorerDNN, task.ScorerRNN} {
		tk, err := task.Build(task.Spec{
			Name:           fmt.Sprintf("pipe-%s", kind),
			Vocab:          24,
			Phones:         10,
			TrainSentences: 160,
			TestUtterances: 2,
			LMMinCount:     2,
			Seed:           227,
			Scorer:         kind,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4, 1000} {
			for _, cfg := range []Config{{}, {PreemptivePruning: true}} {
				t.Run(fmt.Sprintf("%s/k%d/preemptive=%v", kind, k, cfg.PreemptivePruning), func(t *testing.T) {
					for i, u := range tk.Test {
						dSync, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, cfg)
						if err != nil {
							t.Fatal(err)
						}
						dStream, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, cfg)
						if err != nil {
							t.Fatal(err)
						}
						got := decodeChunked(t, dStream, tk.Scorer, u.Frames, k)
						want := dSync.Decode(tk.Scorer.ScoreUtterance(u.Frames))
						comparePipelineResults(t, fmt.Sprintf("utt %d", i), got, want)
					}
				})
			}
		}
	}
}

func compareSnaps(t *testing.T, got, want []frameSnap) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("captured %d frontiers (store) vs %d (reference)", len(got), len(want))
		return
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.frame != w.frame {
			t.Errorf("snapshot %d: frame %d (store) vs %d (reference)", i, g.frame, w.frame)
			return
		}
		if len(g.keys) != len(w.keys) {
			t.Errorf("frame %d: %d tokens (store) vs %d (reference)", g.frame, len(g.keys), len(w.keys))
			return
		}
		for j := range g.keys {
			if g.keys[j] != w.keys[j] || g.toks[j] != w.toks[j] {
				t.Errorf("frame %d entry %d: store (key %d, %+v) vs reference (key %d, %+v)",
					g.frame, j, g.keys[j], g.toks[j], w.keys[j], w.toks[j])
				return
			}
		}
	}
}

func equalInt32s(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
