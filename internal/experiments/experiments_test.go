package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tinyOpts runs experiments at the smallest scale: Quick restricts
// multi-task experiments to the Voxforge-like task, and the scale floor
// keeps graphs small enough for fast composition.
func tinyOpts(buf *bytes.Buffer) Options {
	return Options{
		Scale:      0.05, // floors kick in: ~10-word vocabulary
		Utterances: 3,
		Quick:      true,
		Out:        buf,
	}
}

func TestIDsAndDescribe(t *testing.T) {
	ids := IDs()
	if len(ids) < 14 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	desc := Describe()
	for _, id := range ids {
		if desc[id] == "" {
			t.Errorf("experiment %s has no description", id)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig999", Options{Out: &buf}); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

// Each experiment must run end-to-end at tiny scale and produce output
// containing its header. This is the harness's integration test.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness integration test skipped in -short mode")
	}
	wantFragment := map[string]string{
		"fig1":   "Figure 1",
		"tab1":   "Table 1",
		"tab2":   "Table 2",
		"fig6":   "Figure 6",
		"fig7":   "Figure 7",
		"fig8":   "Figure 8",
		"fig9":   "Figure 9",
		"fig10":  "Figure 10",
		"fig11":  "Figure 11",
		"tab5":   "Table 5",
		"tab6":   "Table 6",
		"fig12":  "Figure 12",
		"fig13":  "Figure 13",
		"prune":  "preemptive pruning",
		"search": "arc-fetch",
		"equiv":  "Oracle",
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			opt := tinyOpts(&buf)
			if err := Run(id, opt); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out := buf.String()
			if frag := wantFragment[id]; frag != "" && !strings.Contains(out, frag) {
				t.Errorf("%s output missing %q:\n%s", id, frag, out)
			}
			if len(out) < 50 {
				t.Errorf("%s produced almost no output", id)
			}
		})
	}
}

func TestQuickModeRestrictsTasks(t *testing.T) {
	quick := defaultSpecs(Options{Scale: 1, Quick: true})
	full := defaultSpecs(Options{Scale: 1})
	if len(quick) != 1 || len(full) != 4 {
		t.Errorf("quick=%d full=%d tasks", len(quick), len(full))
	}
	if quick[0].Name != "KALDI-Voxforge" {
		t.Errorf("quick mode picked %s", quick[0].Name)
	}
}

func TestBundleCachesComposition(t *testing.T) {
	var buf bytes.Buffer
	opt := tinyOpts(&buf).withDefaults()
	b, err := buildBundle(defaultSpecs(opt)[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := b.compose()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := b.compose()
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("composition not cached")
	}
	if b.audioSeconds() <= 0 {
		t.Error("no audio in bundle")
	}
}

// A paper row must not depend on which experiments ran before it in the
// process. Fig 8 compresses the cached composed graph, which the Fig 10
// baseline also simulates; Fig 10 alone, after Fig 8 and once more must
// print the same bytes. A graph re-sorted under the baseline shows in the
// printed digits at scale 0.25, not at tinyOpts' 0.05.
func TestFig10IndependentOfRunOrder(t *testing.T) {
	for _, scale := range []float64{0.05, 0.25} {
		opts := func(buf *bytes.Buffer) Options {
			o := tinyOpts(buf)
			o.Scale = scale
			return o
		}
		fig10 := func() string {
			var buf bytes.Buffer
			if err := Fig10(opts(&buf)); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		}
		bundleCache = map[string]*bundle{}
		alone := fig10()
		var sink bytes.Buffer
		if err := Fig8(opts(&sink)); err != nil {
			t.Fatal(err)
		}
		for _, run := range []string{"after fig8", "again"} {
			if got := fig10(); got != alone {
				t.Fatalf("scale %v: fig10 %s differs from fig10 alone:\n%s\nvs\n%s", scale, run, got, alone)
			}
		}
	}
}
