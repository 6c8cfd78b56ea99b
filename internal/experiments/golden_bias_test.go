package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bias"
	"repro/internal/decoder"
	"repro/internal/task"
)

// goldenBiasBonus is the per-word bonus the biased fixtures are recorded
// at: strong enough that an in-reference phrase list visibly pulls the
// hypothesis, weak enough that out-of-reference phrases cannot hallucinate
// terms the acoustics never support.
const goldenBiasBonus = 4.0

// biasVariants are the three recorded conditions per task. "no-bias" is a
// decoder that never had a bias machine installed (the byte-identity anchor),
// "bias-hit" biases the reference vocabulary of the test set itself, and
// "bias-miss" biases in-lexicon words that appear in no reference — the
// fixture pins down that a miss changes nothing it shouldn't.
var biasVariants = []string{"no-bias", "bias-hit", "bias-miss"}

func goldenBiasPath(taskName, variant string) string {
	return filepath.Join("testdata", fmt.Sprintf("golden_bias_%s_%s.json", taskName, variant))
}

// biasTermSets derives the two deterministic phrase lists: every distinct
// reference word (with its IDs, for the biased-term scorer) and up to four
// lexicon words that appear neither in any reference nor anywhere in the
// unbiased hypotheses — so if one of them shows up under bias-miss, the
// bias machine put it there, not the baseline's own decoding errors.
func biasTermSets(tk *task.Task, noBias []goldenUtt) (hit []string, hitIDs []int32, miss []string, missIDs []int32) {
	used := map[int32]bool{}
	for _, u := range tk.Test {
		for _, id := range u.Words {
			if !used[id] {
				used[id] = true
				hit = append(hit, tk.Lex.Words[id])
				hitIDs = append(hitIDs, id)
			}
		}
	}
	for _, u := range noBias {
		for _, id := range u.Words {
			used[id] = true
		}
	}
	for id := 1; id < len(tk.Lex.Words) && len(miss) < 4; id++ {
		if !used[int32(id)] {
			miss = append(miss, tk.Lex.Words[id])
			missIDs = append(missIDs, int32(id))
		}
	}
	return hit, hitIDs, miss, missIDs
}

// decodeGoldenBias decodes the test set with the given phrase list
// installed (nil phrases = plain two-layer decode).
func decodeGoldenBias(t *testing.T, tk *task.Task, phrases []string) []goldenUtt {
	t.Helper()
	d, err := decoder.NewOnTheFly(tk.AM.G, tk.LMGraph.G, decoder.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(phrases) > 0 {
		lookup := func(w string) (int32, bool) {
			for id, s := range tk.Lex.Words {
				if s == w {
					return int32(id), true
				}
			}
			return 0, false
		}
		m, err := bias.Compile(phrases, goldenBiasBonus, lookup)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SetOptions(decoder.Options{Bias: m}); err != nil {
			t.Fatal(err)
		}
	}
	var out []goldenUtt
	for _, u := range tk.Test {
		r := d.Decode(tk.Scorer.ScoreUtterance(u.Frames))
		out = append(out, goldenUtt{
			Words:        r.Words,
			WordEnds:     r.WordEnds,
			Cost:         float64(r.Cost),
			ReachedFinal: r.ReachedFinal,
		})
	}
	return out
}

// TestGoldenBiasedDecodes records and replays biased decodes for two
// evaluation tasks under the three bias conditions, with the same -update
// convention as the other golden fixtures. Beyond fixture equality it
// asserts the semantics the fixtures exist to freeze:
//
//   - no-bias matches the task's existing solo "default" fixture byte for
//     byte (no machine installed ≡ the pre-bias decoder);
//   - bias-hit makes the biased terms win: biased-term recall (the
//     internal/task metric) is at least the no-bias recall, every
//     hypothesis surfaces at least one biased term, and no utterance's
//     cost got worse than no-bias (a matched bonus can only help a path);
//   - bias-miss never hallucinates: the missed terms appear in no
//     hypothesis, and biased-term stats against them count zero
//     insertions.
func TestGoldenBiasedDecodes(t *testing.T) {
	specs := task.AllSpecs(goldenScale)[:2]
	for _, spec := range specs {
		spec.TestUtterances = goldenUtterances
		tk, err := task.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		hit, hitIDs, miss, missIDs := biasTermSets(tk, decodeGoldenBias(t, tk, nil))
		if len(miss) == 0 {
			t.Fatalf("task %s: every lexicon word is in the references; cannot build a bias-miss list", spec.Name)
		}
		phrasesFor := map[string][]string{"no-bias": nil, "bias-hit": hit, "bias-miss": miss}
		decoded := map[string][]goldenUtt{}
		for _, variant := range biasVariants {
			path := goldenBiasPath(spec.Name, variant)
			t.Run(spec.Name+"/"+variant, func(t *testing.T) {
				got := decodeGoldenBias(t, tk, phrasesFor[variant])
				decoded[variant] = got
				if *updateGolden {
					data, err := json.MarshalIndent(goldenFile{
						Task: spec.Name, Config: variant, Utterances: got,
					}, "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing fixture (run `go test ./internal/experiments -run GoldenBiased -update`): %v", err)
				}
				var want goldenFile
				if err := json.Unmarshal(data, &want); err != nil {
					t.Fatal(err)
				}
				compareGolden(t, got, want.Utterances)
			})
		}

		// Cross-variant semantics (independent of the fixtures on disk, so
		// they hold during -update re-records too).
		t.Run(spec.Name+"/semantics", func(t *testing.T) {
			noBias, hitRes, missRes := decoded["no-bias"], decoded["bias-hit"], decoded["bias-miss"]
			soloPath := goldenPath(spec.Name, "default")
			if data, err := os.ReadFile(soloPath); err == nil {
				var solo goldenFile
				if err := json.Unmarshal(data, &solo); err != nil {
					t.Fatal(err)
				}
				compareGolden(t, noBias, solo.Utterances)
			} else if !*updateGolden {
				t.Errorf("solo fixture %s unreadable: %v", soloPath, err)
			}

			base := task.NewBiasTermAccumulator(hitIDs)
			biased := task.NewBiasTermAccumulator(hitIDs)
			for i, u := range tk.Test {
				base.Add(u.Words, noBias[i].Words)
				biased.Add(u.Words, hitRes[i].Words)
				if hitRes[i].Cost > noBias[i].Cost+1e-3 {
					t.Errorf("utt %d: bias-hit cost %v worse than no-bias %v", i, hitRes[i].Cost, noBias[i].Cost)
				}
				won := false
				for _, w := range hitRes[i].Words {
					for _, id := range hitIDs {
						if w == id {
							won = true
						}
					}
				}
				if !won {
					t.Errorf("utt %d: no biased term in the bias-hit hypothesis %v", i, hitRes[i].Words)
				}
			}
			if biased.Stats().Recall() < base.Stats().Recall() {
				t.Errorf("bias-hit recall %.3f below no-bias recall %.3f: %v vs %v",
					biased.Stats().Recall(), base.Stats().Recall(), biased.Stats(), base.Stats())
			}

			missAcc := task.NewBiasTermAccumulator(missIDs)
			for i, u := range tk.Test {
				missAcc.Add(u.Words, missRes[i].Words)
				for _, w := range missRes[i].Words {
					for _, id := range missIDs {
						if w == id {
							t.Errorf("utt %d: bias-miss hallucinated term %d into %v", i, id, missRes[i].Words)
						}
					}
				}
			}
			if st := missAcc.Stats(); st.Ins != 0 || st.RefTerms != 0 {
				t.Errorf("bias-miss stats not clean: %v", st)
			}
		})
	}
}
