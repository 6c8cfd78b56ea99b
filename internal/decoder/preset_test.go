package decoder

import (
	"fmt"
	"testing"
)

// TestDegradedPresetLadder pins the ladder arithmetic: level 0 is the
// configured search, every level halves both knobs, and the floors stop
// further narrowing.
func TestDegradedPresetLadder(t *testing.T) {
	cfg := Config{Beam: 24, MaxActive: 3000}
	p0 := cfg.DegradedPreset(0)
	if p0.Beam != 24 || p0.MaxActive != 3000 {
		t.Fatalf("level 0 = %+v, want configured values", p0)
	}
	p1 := cfg.DegradedPreset(1)
	if p1.Beam != 12 || p1.MaxActive != 1500 {
		t.Errorf("level 1 = %+v, want beam 12 / max 1500", p1)
	}
	p2 := cfg.DegradedPreset(2)
	if p2.Beam != 6 || p2.MaxActive != 750 {
		t.Errorf("level 2 = %+v, want beam 6 / max 750", p2)
	}
	// Deep levels clamp at the floors rather than collapsing to nothing.
	deep := cfg.DegradedPreset(30)
	if deep.Beam < minDegradedBeam || deep.MaxActive < minDegradedMaxActive {
		t.Errorf("deep level fell through the floors: %+v", deep)
	}
	if floor := cfg.DegradedPreset(31); floor != deep {
		t.Errorf("ladder not stable at the floor: %+v vs %+v", floor, deep)
	}
	// The zero config degrades from the defaults, not from zero.
	if p := (Config{}).DegradedPreset(1); p.Beam != 12 || p.MaxActive != 1500 {
		t.Errorf("zero-config level 1 = %+v, want defaulted ladder", p)
	}
}

// TestSetSearchPresetNarrowsAndRestores checks the seam end to end: a
// degraded preset shrinks the search like an equivalent Config would, and
// clearing it restores byte-identical full-quality decodes.
func TestSetSearchPresetNarrowsAndRestores(t *testing.T) {
	f := getFixture(t, 42)
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{})
	if err != nil {
		t.Fatal(err)
	}
	full := d.Decode(f.scores[0])

	// A decoder configured at the degraded operating point is the oracle
	// for the preset path.
	lvl2 := Config{}.DegradedPreset(2)
	oracle, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G,
		Config{Beam: lvl2.Beam, MaxActive: lvl2.MaxActive})
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Decode(f.scores[0])

	d.SetOptions(Options{Preset: &lvl2})
	got := d.Decode(f.scores[0])
	if fmt.Sprint(got.Words) != fmt.Sprint(want.Words) || got.Cost != want.Cost {
		t.Errorf("preset decode diverged from equivalently configured decoder:\n got %v (%v)\nwant %v (%v)",
			got.Words, got.Cost, want.Words, want.Cost)
	}
	if got.Stats.TokensExpanded >= full.Stats.TokensExpanded {
		t.Errorf("degraded decode expanded %d tokens >= full %d",
			got.Stats.TokensExpanded, full.Stats.TokensExpanded)
	}

	d.SetOptions(Options{})
	restored := d.Decode(f.scores[0])
	if fmt.Sprint(restored.Words) != fmt.Sprint(full.Words) || restored.Cost != full.Cost {
		t.Errorf("SetOptions(Options{}) did not restore the full search: %v vs %v",
			restored.Words, full.Words)
	}
}

// TestStreamHonorsPreset checks that a stream started on a preset decoder
// searches at the degraded operating point and matches batch decoding at
// the same point (the stream/batch equivalence contract, preserved under
// degradation).
func TestStreamHonorsPreset(t *testing.T) {
	f := getFixture(t, 42)
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := Config{}.DegradedPreset(2)
	d.SetOptions(Options{Preset: &p})
	want := d.Decode(f.scores[1])

	st := d.NewStream()
	for _, row := range f.scores[1] {
		if err := st.Push(row); err != nil {
			t.Fatal(err)
		}
	}
	got := st.Finish()
	if fmt.Sprint(got.Words) != fmt.Sprint(want.Words) || got.Cost != want.Cost {
		t.Errorf("preset stream %v (%v) != preset batch %v (%v)",
			got.Words, got.Cost, want.Words, want.Cost)
	}
}
