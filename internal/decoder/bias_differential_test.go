package decoder

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/bias"
	"repro/internal/task"
)

// The nil-bias invariant wall: installing an EMPTY bias machine (one root
// state, zero weight everywhere) must be byte-identical to installing no
// machine at all — same hypotheses, same cost bits, same lattices, same
// search statistics, same per-frame frontier contents in the same order —
// across the seeded task×config matrix and every decode path (solo batch,
// stream, interleaved chunked streams). The empty machine runs the REAL three-way composition
// code (26/26/12 keys, Advance on every emitted word, bias final weights),
// so any drift the bias seam introduces in packing, pruning order or weight
// arithmetic shows up here as a frame-level diff against both the nil
// decoder and the retained two-layer reference.

// numLookup resolves phrase words written as decimal word IDs ("3 17"),
// letting decoder-level tests build machines without a written lexicon.
func numLookup(w string) (int32, bool) {
	id, err := strconv.Atoi(w)
	if err != nil || id < 1 {
		return 0, false
	}
	return int32(id), true
}

func emptyBiasMachine(t testing.TB) *bias.Machine {
	t.Helper()
	m, err := bias.Compile(nil, 0, numLookup)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != 1 || m.MaxBonus() != 0 {
		t.Fatalf("empty machine not identity: %d states, MaxBonus %v", m.NumStates(), m.MaxBonus())
	}
	return m
}

// normSnap is a frame frontier with keys unpacked into component states, so
// frontiers captured under different key packings (32/32 nil vs 26/26/12
// biased) compare structurally.
type normSnap struct {
	frame int
	ams   []int32
	lms   []int32
	bss   []int32
	toks  []token
}

func captureNormFrames(d *OnTheFly) *[]normSnap {
	snaps := &[]normSnap{}
	d.frameHook = func(frame int, keys []uint64, toks []token) {
		s := normSnap{frame: frame, toks: append([]token(nil), toks...)}
		for _, k := range keys {
			am, lm, bs := d.unpack(k)
			s.ams = append(s.ams, int32(am))
			s.lms = append(s.lms, int32(lm))
			s.bss = append(s.bss, int32(bs))
		}
		*snaps = append(*snaps, s)
	}
	return snaps
}

func compareNormSnaps(t *testing.T, got, want []normSnap) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("captured %d frontiers (biased) vs %d (nil)", len(got), len(want))
		return
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.frame != w.frame {
			t.Errorf("snapshot %d: frame %d (biased) vs %d (nil)", i, g.frame, w.frame)
			return
		}
		if len(g.ams) != len(w.ams) {
			t.Errorf("frame %d: %d tokens (biased) vs %d (nil)", g.frame, len(g.ams), len(w.ams))
			return
		}
		for j := range g.ams {
			if g.ams[j] != w.ams[j] || g.lms[j] != w.lms[j] || g.bss[j] != 0 ||
				g.toks[j] != w.toks[j] {
				t.Errorf("frame %d entry %d: biased (am %d, lm %d, bias %d, %+v) vs nil (am %d, lm %d, %+v)",
					g.frame, j, g.ams[j], g.lms[j], g.bss[j], g.toks[j], w.ams[j], w.lms[j], w.toks[j])
				return
			}
		}
	}
}

func compareResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Cost != want.Cost {
		t.Errorf("%s cost: %v vs %v", label, got.Cost, want.Cost)
	}
	if got.ReachedFinal != want.ReachedFinal {
		t.Errorf("%s finality: %v vs %v", label, got.ReachedFinal, want.ReachedFinal)
	}
	if !equalInt32s(got.Words, want.Words) {
		t.Errorf("%s words: %v vs %v", label, got.Words, want.Words)
	}
	if !equalInt32s(got.WordEnds, want.WordEnds) {
		t.Errorf("%s word ends: %v vs %v", label, got.WordEnds, want.WordEnds)
	}
	if gs, ws := got.Stats, want.Stats; gs != ws {
		t.Errorf("%s stats: %+v vs %+v", label, gs, ws)
	}
}

// TestDifferentialNilVsEmptyBiasSolo sweeps the seeded task×config matrix:
// the empty-bias decode must match the nil-bias decode frame for frame, and
// both must match the retained two-layer reference decoder.
func TestDifferentialNilVsEmptyBiasSolo(t *testing.T) {
	seeds := []int64{221, 222, 223, 224}
	total := 0
	for _, seed := range seeds {
		tk, err := task.Build(task.Spec{
			Name:           fmt.Sprintf("bias-diff-%d", seed),
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
		scores := tk.Scorer.ScoreUtterance(tk.Test[0].Frames)
		for _, tc := range diffConfigs {
			total++
			t.Run(fmt.Sprintf("seed%d/%s", seed, tc.name), func(t *testing.T) {
				in := scores
				if tc.cfg.RescueWidenings > 0 && len(in) > 2 {
					in = poisonFrame(in, len(in)/2)
				}
				dNil, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				dEmpty, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := dEmpty.SetOptions(Options{Bias: emptyBiasMachine(t)}); err != nil {
					t.Fatal(err)
				}
				dRef, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				nilSnaps := captureNormFrames(dNil)
				emptySnaps := captureNormFrames(dEmpty)

				rNil := dNil.Decode(in)
				rEmpty := dEmpty.Decode(in)
				rRef := dRef.DecodeReference(in)

				compareResults(t, "empty-bias vs nil", rEmpty, rNil)
				compareResults(t, "nil vs reference", rNil, rRef)
				compareNormSnaps(t, *emptySnaps, *nilSnaps)
			})
		}
	}
	if total < 25 {
		t.Fatalf("bias differential sweep shrank to %d cases; keep it at 25+", total)
	}
}

// TestDifferentialNilVsEmptyBiasStream pushes the same frames through nil-
// and empty-bias streams: the incremental path seeds its frontier through
// startKey and shares stepFrame, so it must stay identical too.
func TestDifferentialNilVsEmptyBiasStream(t *testing.T) {
	f := getFixture(t, 42)
	for _, tc := range diffConfigs {
		if tc.cfg.RescueWidenings > 0 {
			continue // streams have no rescue snapshots
		}
		t.Run(tc.name, func(t *testing.T) {
			dNil, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			dEmpty, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := dEmpty.SetOptions(Options{Bias: emptyBiasMachine(t)}); err != nil {
				t.Fatal(err)
			}
			for i, scores := range f.scores {
				sNil, sEmpty := dNil.NewStream(), dEmpty.NewStream()
				for _, frame := range scores {
					if err := sNil.Push(frame); err != nil {
						t.Fatal(err)
					}
					if err := sEmpty.Push(frame); err != nil {
						t.Fatal(err)
					}
					if !equalInt32s(sEmpty.Partial(), sNil.Partial()) {
						t.Fatalf("utt %d: partials diverge: %v vs %v", i, sEmpty.Partial(), sNil.Partial())
					}
				}
				compareResults(t, fmt.Sprintf("utt %d stream", i), sEmpty.Finish(), sNil.Finish())
			}
		})
	}
}

// TestDifferentialNilVsEmptyBiasLanes drives empty-bias decoders through
// two interleaved chunked streams (decodeInterleaved; utterances outnumber
// streams, so a slot opens a new stream mid-flight) against solo nil-bias
// decodes.
func TestDifferentialNilVsEmptyBiasLanes(t *testing.T) {
	tk, err := task.Build(task.Spec{
		Name:           "bias-lane-diff",
		Vocab:          24,
		Phones:         10,
		TrainSentences: 160,
		TestUtterances: 5,
		LMMinCount:     2,
		Seed:           225,
	})
	if err != nil {
		t.Fatal(err)
	}
	utts := make([][][]float32, len(tk.Test))
	for i, u := range tk.Test {
		utts[i] = u.Frames
	}
	for _, tc := range diffConfigs {
		if tc.cfg.RescueWidenings > 0 {
			continue // streams have no rescue snapshots
		}
		t.Run(tc.name, func(t *testing.T) {
			solo := make([]*Result, len(tk.Test))
			for i, u := range tk.Test {
				d, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				solo[i] = d.Decode(tk.Scorer.ScoreUtterance(u.Frames))
			}

			got := decodeInterleaved(t, tk.Scorer, utts, 2, func(int) *OnTheFly {
				d, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := d.SetOptions(Options{Bias: emptyBiasMachine(t)}); err != nil {
					t.Fatal(err)
				}
				return d
			})
			for i := range tk.Test {
				if got[i] == nil {
					t.Fatalf("utt %d: no stream result", i)
				}
				compareResults(t, fmt.Sprintf("utt %d interleaved", i), got[i], solo[i])
			}
		})
	}
}

// TestBiasedDecodeAgreesAcrossPaths locks the biased (non-empty machine)
// decode itself: the same utterance with the same installed machine must
// produce byte-identical results through solo batch, stream and chunked
// stream decodes — biasing changes WHAT wins, never path determinism.
func TestBiasedDecodeAgreesAcrossPaths(t *testing.T) {
	f := getFixture(t, 42)
	// Bias toward the reference words of utterance 0 so the machine
	// actually advances off its root during the decode.
	var phrase string
	for _, w := range f.tk.Test[0].Words {
		if phrase != "" {
			phrase += " "
		}
		phrase += strconv.Itoa(int(w))
	}
	m, err := bias.Compile([]string{phrase}, 1.5, numLookup)
	if err != nil {
		t.Fatal(err)
	}
	if m.Phrases() != 1 {
		t.Fatalf("phrase %q did not compile", phrase)
	}

	mk := func() *OnTheFly {
		d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SetOptions(Options{Bias: m}); err != nil {
			t.Fatal(err)
		}
		return d
	}

	want := mk().Decode(f.scores[0])

	s := mk().NewStream()
	for _, frame := range f.scores[0] {
		if err := s.Push(frame); err != nil {
			t.Fatal(err)
		}
	}
	compareResults(t, "biased stream vs solo", s.Finish(), want)

	compareResults(t, "biased chunked stream vs solo",
		decodeChunked(t, mk(), f.tk.Scorer, f.tk.Test[0].Frames, 3), want)
}
