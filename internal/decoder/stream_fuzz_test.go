package decoder

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/acoustic"
	"repro/internal/task"
)

var (
	chunkTasksOnce sync.Once
	chunkTasks     []*task.Task
	chunkTasksErr  error
)

// chunkFuzzTasks builds one small task per scorer kind, once per process.
func chunkFuzzTasks(t *testing.T) []*task.Task {
	t.Helper()
	chunkTasksOnce.Do(func() {
		for _, kind := range []task.ScorerKind{task.ScorerGMM, task.ScorerDNN, task.ScorerRNN} {
			tk, err := task.Build(task.Spec{
				Name:           fmt.Sprintf("chunk-fuzz-%s", kind),
				Vocab:          24,
				Phones:         10,
				TrainSentences: 160,
				TestUtterances: 2,
				LMMinCount:     2,
				Seed:           229,
				Scorer:         kind,
			})
			if err != nil {
				chunkTasksErr = err
				return
			}
			chunkTasks = append(chunkTasks, tk)
		}
	})
	if chunkTasksErr != nil {
		t.Fatal(chunkTasksErr)
	}
	return chunkTasks
}

// FuzzStreamChunks holds the live stream path — features scored chunk by
// chunk through one acoustic.Utterance, rows pushed into a Stream — to the
// whole-utterance Decode, bit for bit: words, word ends, cost bits,
// finality and search statistics. Its on-demand arm runs the same chunks
// through a second Utterance loaded chunk by chunk and read by Stream.Feed
// (a GMM scoring only the senones each frontier reads), checked by
// strictFeed on every row, to the same bits. The input picks the scorer kind (the
// GMM, the DNN, or the RNN whose recurrence must carry across every chunk
// edge), the utterance, preemptive pruning on or off, and the chunk
// partition: chunk i is chunks[i mod len] frames, 0 meaning the rest of the
// utterance (and no chunks at all meaning one chunk).
func FuzzStreamChunks(f *testing.F) {
	f.Add([]byte{1}, uint8(0), false)
	f.Add([]byte{4, 1, 25}, uint8(1), true)
	f.Add([]byte{15, 16, 17, 3}, uint8(2), false)
	f.Add([]byte{2, 0}, uint8(5), true)
	f.Add([]byte{}, uint8(4), false)
	f.Fuzz(func(t *testing.T, chunks []byte, pick uint8, preemptive bool) {
		tasks := chunkFuzzTasks(t)
		tk := tasks[int(pick)%len(tasks)]
		frames := tk.Test[int(pick)/len(tasks)%len(tk.Test)].Frames
		cfg := Config{PreemptivePruning: preemptive}
		dWhole, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dStream, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := dWhole.Decode(tk.Scorer.ScoreUtterance(frames))

		dFeed, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eager := tk.Scorer.ScoreUtterance(frames)
		s, sFeed := dStream.NewStream(), dFeed.NewStream()
		defer sFeed.Close()
		u, uFeed := acoustic.NewUtterance(tk.Scorer), acoustic.NewUtterance(tk.Scorer)
		defer u.Close()
		defer uFeed.Close()
		for pos, i := 0, 0; pos < len(frames); i++ {
			end := len(frames)
			if len(chunks) > 0 {
				if k := int(chunks[i%len(chunks)]) % 40; k > 0 {
					end = min(pos+k, len(frames))
				}
			}
			for _, row := range u.Score(frames[pos:end]) {
				if err := s.Push(row); err != nil {
					t.Fatal(err)
				}
			}
			uFeed.Load(frames[pos:end])
			sFeed.Feed(&strictFeed{t: t, inner: uFeed, eager: eager, base: pos}, end-pos)
			pos = end
		}
		got := s.Finish()
		if gotFeed := sFeed.Finish(); math.Float32bits(float32(gotFeed.Cost)) != math.Float32bits(float32(got.Cost)) ||
			!equalInt32s(gotFeed.Words, got.Words) || !equalInt32s(gotFeed.WordEnds, got.WordEnds) ||
			gotFeed.Stats.Search() != got.Stats.Search() {
			t.Errorf("%s on demand: %v at %v cost %v %+v, pushed rows: %v at %v cost %v %+v", tk.Scorer.Name(),
				gotFeed.Words, gotFeed.WordEnds, gotFeed.Cost, gotFeed.Stats.Search(),
				got.Words, got.WordEnds, got.Cost, got.Stats.Search())
		}

		if math.Float32bits(float32(got.Cost)) != math.Float32bits(float32(want.Cost)) {
			t.Errorf("%s cost: stream %v, whole %v", tk.Scorer.Name(), got.Cost, want.Cost)
		}
		if got.ReachedFinal != want.ReachedFinal {
			t.Errorf("%s finality: stream %v, whole %v", tk.Scorer.Name(), got.ReachedFinal, want.ReachedFinal)
		}
		if !equalInt32s(got.Words, want.Words) || !equalInt32s(got.WordEnds, want.WordEnds) {
			t.Errorf("%s words: stream %v at %v, whole %v at %v",
				tk.Scorer.Name(), got.Words, got.WordEnds, want.Words, want.WordEnds)
		}
		if gs, ws := got.Stats.Search(), want.Stats.Search(); gs != ws {
			t.Errorf("%s stats: stream %+v, whole %+v", tk.Scorer.Name(), gs, ws)
		}
	})
}
