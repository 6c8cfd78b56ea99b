package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/acoustic"
	"repro/internal/decoder"
	"repro/internal/task"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden decode fixtures")

// goldenScale sizes the fixture tasks: large enough that all four evaluation
// tasks exercise back-off, pruning and multi-hundred-frame utterances, small
// enough that the replay stays in unit-test budget.
const goldenScale = 0.25

const goldenUtterances = 4

// goldenUtt is one recorded decode: the exact hypothesis and its cost.
type goldenUtt struct {
	Words        []int32 `json:"words"`
	WordEnds     []int32 `json:"word_ends"`
	Cost         float64 `json:"cost"`
	ReachedFinal bool    `json:"reached_final"`
}

// goldenFile is the fixture for one (task, decoder config) pair.
type goldenFile struct {
	Task       string      `json:"task"`
	Config     string      `json:"config"`
	Utterances []goldenUtt `json:"utterances"`
}

// goldenConfigs are the decoder configurations the fixtures pin down: the
// paper's default search and its preemptive-pruning variant.
var goldenConfigs = []struct {
	name string
	cfg  decoder.Config
}{
	{"default", decoder.Config{}},
	{"preemptive", decoder.Config{PreemptivePruning: true}},
}

func goldenPath(taskName, cfgName string) string {
	return filepath.Join("testdata", fmt.Sprintf("golden_%s_%s.json", taskName, cfgName))
}

func decodeGolden(t *testing.T, tk *task.Task, cfg decoder.Config) []goldenUtt {
	t.Helper()
	d, err := decoder.NewOnTheFly(tk.AM.G, tk.LMGraph.G, cfg)
	if err != nil {
		t.Fatal(err)
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

// TestGoldenDecodes replays the four evaluation tasks of the experiment
// harness against committed fixtures: word sequences, word end frames and
// finality must match exactly, costs to 1e-3. The fixtures were recorded
// from the decoder and double as a cross-machine regression net — any change
// to search semantics (pruning order, tie-breaking, LM resolution) shows up
// as a fixture diff that must be reviewed, not silently re-recorded. Run
// with -update to re-record after an intentional change.
func TestGoldenDecodes(t *testing.T) {
	for _, spec := range task.AllSpecs(goldenScale) {
		spec.TestUtterances = goldenUtterances
		tk, err := task.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, gc := range goldenConfigs {
			path := goldenPath(spec.Name, gc.name)
			t.Run(spec.Name+"/"+gc.name, func(t *testing.T) {
				got := decodeGolden(t, tk, gc.cfg)
				if *updateGolden {
					data, err := json.MarshalIndent(goldenFile{
						Task: spec.Name, Config: gc.name, Utterances: got,
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
					t.Fatalf("missing fixture (run `go test ./internal/experiments -run Golden -update`): %v", err)
				}
				var want goldenFile
				if err := json.Unmarshal(data, &want); err != nil {
					t.Fatal(err)
				}
				compareGolden(t, got, want.Utterances)
			})
		}
	}
}

// streamChunks are the push sizes decodeGoldenStreamed cycles through, one
// per utterance: single frames, a few frames, and pushes past one 16-frame
// scoring block.
var streamChunks = []int{1, 3, 8, 25}

// decodeGoldenStreamed decodes the task's test set the way /v1/stream does:
// each utterance on its own decoder, its features scored chunk by chunk
// through one acoustic.Utterance and pushed row by row into a Stream.
func decodeGoldenStreamed(t *testing.T, tk *task.Task, cfg decoder.Config) []goldenUtt {
	t.Helper()
	var out []goldenUtt
	for i, u := range tk.Test {
		d, err := decoder.NewOnTheFly(tk.AM.G, tk.LMGraph.G, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := d.NewStream()
		scorer := acoustic.NewUtterance(tk.Scorer)
		k := streamChunks[i%len(streamChunks)]
		for off := 0; off < len(u.Frames); off += k {
			for _, row := range scorer.Score(u.Frames[off:min(off+k, len(u.Frames))]) {
				if err := s.Push(row); err != nil {
					t.Fatal(err)
				}
			}
		}
		scorer.Close()
		r := s.Finish()
		out = append(out, goldenUtt{
			Words:        r.Words,
			WordEnds:     r.WordEnds,
			Cost:         float64(r.Cost),
			ReachedFinal: r.ReachedFinal,
		})
	}
	return out
}

// TestGoldenDecodesStreamed replays the same four evaluation tasks as
// chunked streams and holds the results to the *solo* fixtures — no stream
// testdata exists on purpose. Chunking must be invisible in the output:
// same words, same end frames, same costs, under both pinned search
// configurations — for the EESEN task too, whose recurrent scorer carries
// its state across chunk boundaries.
func TestGoldenDecodesStreamed(t *testing.T) {
	if *updateGolden {
		t.Skip("streamed decodes assert against the solo fixtures; nothing to update")
	}
	for _, spec := range task.AllSpecs(goldenScale) {
		spec.TestUtterances = goldenUtterances
		tk, err := task.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, gc := range goldenConfigs {
			path := goldenPath(spec.Name, gc.name)
			t.Run(spec.Name+"/"+gc.name, func(t *testing.T) {
				got := decodeGoldenStreamed(t, tk, gc.cfg)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing fixture (run `go test ./internal/experiments -run Golden -update`): %v", err)
				}
				var want goldenFile
				if err := json.Unmarshal(data, &want); err != nil {
					t.Fatal(err)
				}
				compareGolden(t, got, want.Utterances)
			})
		}
	}
}

func compareGolden(t *testing.T, got, want []goldenUtt) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d utterances, fixture has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !equalI32(g.Words, w.Words) {
			t.Errorf("utt %d words: got %v, fixture %v", i, g.Words, w.Words)
		}
		if !equalI32(g.WordEnds, w.WordEnds) {
			t.Errorf("utt %d word ends: got %v, fixture %v", i, g.WordEnds, w.WordEnds)
		}
		if math.Abs(g.Cost-w.Cost) > 1e-3 {
			t.Errorf("utt %d cost: got %v, fixture %v", i, g.Cost, w.Cost)
		}
		if g.ReachedFinal != w.ReachedFinal {
			t.Errorf("utt %d finality: got %v, fixture %v", i, g.ReachedFinal, w.ReachedFinal)
		}
	}
}

func equalI32(a, b []int32) bool {
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
