package decoder

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bias"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/search_digest.json")

// TestSearchDigest pins the search's exact output on cappedTask against a
// committed digest: an FNV-1a hash over every utterance's words, word ends,
// cost bits, finality and Stats, for the capped configuration of
// TestCappedSearchMatchesReference and for a biased one. That test compares
// the token store with DecodeReference, and both call OnTheFly.resolve, so a
// change to the LM fetch path moves both sides together; the digest moves
// with it. A count-preserving change leaves the digest alone; a change that
// alters the search re-records it with -update and says which counts moved.
func TestSearchDigest(t *testing.T) {
	tk := cappedTask(t)
	var phrase string
	for i, w := range tk.Test[0].Words {
		if i > 0 {
			phrase += " "
		}
		phrase += strconv.Itoa(int(w))
	}
	m, err := bias.Compile([]string{phrase}, 1.5, numLookup)
	if err != nil || m.Phrases() != 1 {
		t.Fatalf("bias phrase %q: %v", phrase, err)
	}
	digest := func(cfg Config, m *bias.Machine) string {
		d, err := NewOnTheFly(tk.AM.G, tk.LMGraph.G, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SetOptions(Options{Bias: m}); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, u := range tk.Test {
			r := d.Decode(tk.Scorer.ScoreUtterance(u.Frames))
			fmt.Fprintf(h, "%v %v %#x %v %s\n", r.Words, r.WordEnds, math.Float32bits(float32(r.Cost)), r.ReachedFinal, digestStats(r.Stats))
		}
		return fmt.Sprintf("%016x", h.Sum64())
	}
	got := map[string]string{
		"capped": digest(cappedConfig, nil),
		"biased": digest(Config{PreemptivePruning: true}, m),
	}

	path := filepath.Join("testdata", "search_digest.json")
	if *updateDigest {
		b, _ := json.MarshalIndent(got, "", "  ")
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		if g != want[name] {
			t.Errorf("%s search digest %s, recorded %s: the search's words, costs or counts changed", name, g, want[name])
		}
	}
}

// digestStats prints st the way %+v printed Stats while the struct also
// carried three process-wide allocation counters, zero in the digest's
// view, so the recorded digests pin the search alone across their removal.
func digestStats(st Stats) string {
	return strings.TrimSuffix(fmt.Sprintf("%+v", st), "}") + " AllocBytes:0 AllocObjects:0 GCCycles:0}"
}
