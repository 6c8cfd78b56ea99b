package decoder

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"testing"

	"repro/internal/acoustic"
	"repro/internal/bias"
	"repro/internal/task"
)

// strictFeed checks the Feeder contract from the search's side. It asks
// every frame's need itself, holds the inner feeder's row to the eager
// rows on each senone need lists, and hands the search a copy in which
// every other entry is NaN: a read outside need turns a token's cost NaN,
// which drops it, so the frontier diff below catches it. base is the
// utterance frame of row 0 (a stream's chunk offset).
type strictFeed struct {
	t     testing.TB
	inner Feeder
	eager [][]float32
	base  int
	row   []float32
	rows  int // Row calls
}

func (s *strictFeed) Row(i int, need func() []int32) []float32 {
	s.rows++
	senones := need()
	got := s.inner.Row(i, need)
	want := s.eager[s.base+i]
	if s.row == nil {
		s.row = make([]float32, len(want))
	}
	for j := range s.row {
		s.row[j] = float32(math.NaN())
	}
	for _, sn := range senones {
		if math.Float32bits(got[sn]) != math.Float32bits(want[sn]) {
			s.t.Fatalf("frame %d senone %d: on demand %g, eager %g", s.base+i, sn, got[sn], want[sn])
		}
		s.row[sn] = got[sn]
	}
	return s.row
}

// compareExact is compareResults with the cost compared by bit pattern.
func compareExact(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if math.Float32bits(float32(got.Cost)) != math.Float32bits(float32(want.Cost)) {
		t.Errorf("%s cost bits: %v vs %v", label, got.Cost, want.Cost)
	}
	compareResults(t, label, got, want)
}

// poisonFeatures returns a copy of frames with frame f's features NaN: every
// senone scores NaN there, so the frame is unsearchable at any beam.
func poisonFeatures(frames [][]float32, f int) [][]float32 {
	out := append([][]float32(nil), frames...)
	row := make([]float32, len(frames[f]))
	for i := range row {
		row[i] = float32(math.NaN())
	}
	out[f] = row
	return out
}

// TestDifferentialOnDemandVsEager holds the on-demand path — features
// scored by an acoustic.Utterance as DecodeContext's search reads them — to
// Decode over ScoreUtterance's rows: words, word ends, cost bits, finality,
// Stats and every per-frame frontier, over seeded tasks of each
// scorer kind and every differential config (rescue among them), plus a
// poisoned frame under rescue (each widening asks for the frame again),
// an installed bias machine and a degraded preset. strictFeed checks the
// rows on every senone the search reads and that it reads no other.
func TestDifferentialOnDemandVsEager(t *testing.T) {
	f := getFixture(t, 42)
	var phrase string
	for _, w := range f.tk.Test[0].Words {
		phrase += strconv.Itoa(int(w)) + " "
	}
	bm, err := bias.Compile([]string{phrase}, 1.5, numLookup)
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		name  string
		tk    *task.Task
		cfg   Config
		setup func(*OnTheFly)
	}
	var variants []variant
	for _, tk := range append([]*task.Task{f.tk}, chunkFuzzTasks(t)...) {
		for _, dc := range diffConfigs {
			variants = append(variants, variant{tk.Spec.Name + "/" + dc.name, tk, dc.cfg, nil})
		}
	}
	variants = append(variants,
		variant{"bias", f.tk, Config{PreemptivePruning: true}, func(d *OnTheFly) {
			if err := d.SetOptions(Options{Bias: bm}); err != nil {
				t.Fatal(err)
			}
		}},
		variant{"preset", f.tk, Config{}, func(d *OnTheFly) {
			p := Config{}.DegradedPreset(2)
			d.SetOptions(Options{Preset: &p})
		}},
	)
	var rescued int64
	for _, v := range variants {
		mk := func() (*OnTheFly, *[]frameSnap) {
			d, err := NewOnTheFly(v.tk.AM.G, v.tk.LMGraph.G, v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if v.setup != nil {
				v.setup(d)
			}
			return d, captureFrames(d)
		}
		dEager, eagerSnaps := mk()
		dLazy, lazySnaps := mk()
		u := acoustic.NewUtterance(v.tk.Scorer)
		utts := [][][]float32{}
		for _, tu := range v.tk.Test {
			utts = append(utts, tu.Frames)
		}
		if v.cfg.RescueWidenings > 0 {
			utts = append(utts, poisonFeatures(utts[0], len(utts[0])/2))
		}
		for i, frames := range utts {
			label := fmt.Sprintf("%s utt %d", v.name, i)
			*eagerSnaps, *lazySnaps = nil, nil
			eager := v.tk.Scorer.ScoreUtterance(frames)
			want := dEager.Decode(eager)
			u.Reset()
			u.Load(frames)
			feed := &strictFeed{t: t, inner: u, eager: eager}
			got, err := dLazy.DecodeContext(context.Background(), feed, len(frames))
			if err != nil {
				t.Fatal(err)
			}
			compareExact(t, label, got, want)
			compareSnaps(t, *lazySnaps, *eagerSnaps)
			rescued += want.Stats.Rescues
			if calls := int64(len(frames)) + want.Stats.Rescues; feed.rows != int(calls) && want.Stats.SearchFailures == 0 {
				t.Errorf("%s: %d Row calls for %d frames and %d rescues", label, feed.rows, len(frames), want.Stats.Rescues)
			}
		}
		u.Close()
	}
	if rescued == 0 {
		t.Error("no rescue widening ran: the repeated Row calls went untested")
	}
}

// TestStreamFeedMatchesDecode is the stream half: chunks loaded into one
// acoustic.Utterance and searched with Stream.Feed, for chunk sizes across
// the 16-frame block edges, equal Decode over the whole utterance's rows —
// result and every frontier — for each scorer kind.
func TestStreamFeedMatchesDecode(t *testing.T) {
	for _, tk := range chunkFuzzTasks(t) {
		for _, k := range []int{1, 3, 16, 17, 1000} {
			for i, tu := range tk.Test {
				label := fmt.Sprintf("%s chunk %d utt %d", tk.Scorer.Name(), k, i)
				dEager, _ := NewOnTheFly(tk.AM.G, tk.LMGraph.G, Config{PreemptivePruning: true})
				dLazy, _ := NewOnTheFly(tk.AM.G, tk.LMGraph.G, Config{PreemptivePruning: true})
				eagerSnaps, lazySnaps := captureFrames(dEager), captureFrames(dLazy)
				eager := tk.Scorer.ScoreUtterance(tu.Frames)
				want := dEager.Decode(eager)
				s := dLazy.NewStream()
				u := acoustic.NewUtterance(tk.Scorer)
				for base := 0; base < len(tu.Frames); base += k {
					end := min(base+k, len(tu.Frames))
					u.Load(tu.Frames[base:end])
					s.Feed(&strictFeed{t: t, inner: u, eager: eager, base: base}, end-base)
				}
				compareExact(t, label, s.Finish(), want)
				compareSnaps(t, *lazySnaps, *eagerSnaps)
				s.Close()
				s.Close()
				u.Close()
			}
		}
	}
}
