package decoder

import (
	"bytes"
	"testing"

	"repro/internal/task"
	"repro/internal/wfst"
)

// flatten round-trips a graph through the flat CSR encoding — the same view
// a mapped v3 bundle presents — so these tests drive the decoder over
// exactly what serving from a flat model store executes.
func flatten(t *testing.T, g *wfst.WFST) *wfst.WFST {
	t.Helper()
	var sb, ab bytes.Buffer
	if err := wfst.WriteFlatStates(g, &sb); err != nil {
		t.Fatal(err)
	}
	if err := wfst.WriteFlatArcs(g, &ab); err != nil {
		t.Fatal(err)
	}
	// Fresh allocations stand in for a 16-byte-aligned bundle section.
	states := append([]byte(nil), sb.Bytes()...)
	arcs := append([]byte(nil), ab.Bytes()...)
	flat, err := wfst.NewFromFlat(g.Start(), g.NumStates(), states, arcs, g.InSorted())
	if err != nil {
		t.Fatal(err)
	}
	return flat
}

// TestDifferentialFlatVsPointerGraphs extends the differential gate across
// the model-store seam: decoding over flat-constructed (zero-copy) graphs
// must be byte-identical to the pointer-graph path — words, costs, stats,
// and every per-frame frontier — under every search configuration.
func TestDifferentialFlatVsPointerGraphs(t *testing.T) {
	f := getFixture(t, 42)
	amFlat := flatten(t, f.tk.AM.G)
	lmFlat := flatten(t, f.tk.LMGraph.G)
	for _, tc := range diffConfigs {
		t.Run(tc.name, func(t *testing.T) {
			in := f.scores[0]
			if tc.cfg.RescueWidenings > 0 && len(in) > 2 {
				in = poisonFrame(in, len(in)/2)
			}
			dFlat, err := NewOnTheFly(amFlat, lmFlat, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			dPtr, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			flatSnaps := captureFrames(dFlat)
			ptrSnaps := captureFrames(dPtr)

			got := dFlat.Decode(in)
			want := dPtr.Decode(in)

			if got.Cost != want.Cost || got.ReachedFinal != want.ReachedFinal {
				t.Errorf("flat (%v, %v) vs pointer (%v, %v)", got.Cost, got.ReachedFinal, want.Cost, want.ReachedFinal)
			}
			if !equalInt32s(got.Words, want.Words) || !equalInt32s(got.WordEnds, want.WordEnds) {
				t.Errorf("words: flat %v/%v vs pointer %v/%v", got.Words, got.WordEnds, want.Words, want.WordEnds)
			}
			if gs, ws := got.Stats, want.Stats; gs != ws {
				t.Errorf("stats: flat %+v vs pointer %+v", gs, ws)
			}
			compareSnaps(t, *flatSnaps, *ptrSnaps)
		})
	}
}

// TestAllocsStepFrameFlatGraphs is the 0-allocs/frame gate over the
// zero-copy path: the steady-state frame loop on flat-constructed graphs
// must allocate nothing, proving arc iteration from a flat section needs no
// unmarshal step or per-arc allocation.
func TestAllocsStepFrameFlatGraphs(t *testing.T) {
	f := getFixture(t, 42)
	d, err := NewOnTheFly(flatten(t, f.tk.AM.G), flatten(t, f.tk.LMGraph.G), Config{PreemptivePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	sc := getScratch()
	defer putScratch(sc)
	decodeInPlace(d, f.scores[0], sc) // warm buffers and the offset memo

	allocs := testing.AllocsPerRun(10, func() {
		decodeInPlace(d, f.scores[0], sc)
	})
	if allocs > 0 {
		t.Errorf("flat-graph stepFrame loop allocates %.1f objects per utterance, want 0", allocs)
	}
}

// TestEpsIndexTaskFixtures checks the graph index the epsilon closure trusts
// against the arc tables of every task fixture, on both storage forms a
// decoder meets: the pointer-built graph and its flat-aliased twin. The AM
// bitset is what epsClosure reads; the LM (whose back-off arcs are its
// input-epsilon arcs) is the dense case of the same invariant.
func TestEpsIndexTaskFixtures(t *testing.T) {
	for _, spec := range task.AllSpecs(1.0) {
		tk, err := task.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		for name, g := range map[string]*wfst.WFST{
			"am": tk.AM.G, "am-flat": flatten(t, tk.AM.G),
			"lm": tk.LMGraph.G, "lm-flat": flatten(t, tk.LMGraph.G),
		} {
			bits := g.EpsInStates()
			marked := 0
			for s := 0; s < g.NumStates(); s++ {
				has := false
				for _, a := range g.Arcs(wfst.StateID(s)) {
					has = has || a.In == wfst.Epsilon
				}
				if got := bits[s>>6]>>(s&63)&1 != 0; got != has {
					t.Fatalf("%s %s state %d: bit %v, arcs say %v", spec.Name, name, s, got, has)
				}
				if has {
					marked++
				}
			}
			if marked == 0 || marked == g.NumStates() {
				t.Errorf("%s %s: %d of %d states have an input-epsilon arc; the fixture no longer separates the two kinds",
					spec.Name, name, marked, g.NumStates())
			}
		}
	}
}
