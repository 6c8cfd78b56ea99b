package unfold

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/flatstore"
)

// saveFlatFixture writes the shared test system as a v3 bundle.
func saveFlatFixture(t testing.TB) (string, *bundleFixture) {
	t.Helper()
	fx := getBundle(t)
	path := filepath.Join(t.TempDir(), "model.ufb3")
	if err := fx.sys.SaveFlat(path); err != nil {
		t.Fatal(err)
	}
	return path, fx
}

// decodeAll runs the recognizer over the fixture's test set.
func decodeAll(t *testing.T, fx *bundleFixture, rec *Recognizer) [][]int32 {
	t.Helper()
	out := make([][]int32, len(fx.sys.TestSet()))
	for i, u := range fx.sys.TestSet() {
		hyp, err := rec.Recognize(u.Frames)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = hyp
	}
	return out
}

// TestSaveFlatLoadRoundTrip is the v3 differential gate: recognition output
// from the flat bundle — on both the fully-verified and the O(1) fast load
// path — must be byte-identical to the v2 pointer-graph path.
func TestSaveFlatLoadRoundTrip(t *testing.T) {
	path, fx := saveFlatFixture(t)

	v2rec, err := LoadRecognizer(fx.dir)
	if err != nil {
		t.Fatal(err)
	}
	want := decodeAll(t, fx, v2rec)

	for _, tc := range []struct {
		name string
		load func() (*Recognizer, error)
	}{
		{"full-verify", func() (*Recognizer, error) { return LoadRecognizer(path) }},
		{"fast", func() (*Recognizer, error) { return LoadRecognizerFast(path) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := tc.load()
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if !reflect.DeepEqual(decodeAll(t, fx, rec), want) {
				t.Fatal("v3 decode differs from the v2 pointer-graph path")
			}
			if rec.ResidentBytes() <= 0 {
				t.Error("non-positive ResidentBytes")
			}
			if rec.Lex.V() != fx.sys.Task.Lex.V() {
				t.Error("vocabulary changed across formats")
			}
			if rec.Model != nil {
				t.Error("v3 load should not materialize the LM model")
			}
		})
	}
}

func TestLoadRecognizerFastIsMapped(t *testing.T) {
	path, _ := saveFlatFixture(t)
	rec, err := LoadRecognizerFast(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	// On unix the trusted path must actually map the bundle, not copy it.
	if !rec.Mapped() {
		t.Skip("mmap unavailable on this platform; fallback path exercised elsewhere")
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ResidentBytes() != st.Size() {
		t.Errorf("ResidentBytes %d != bundle size %d", rec.ResidentBytes(), st.Size())
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal("second Close errored")
	}
}

// TestConvertBundle checks the v2→v3 conversion path end to end: the
// converted bundle must decode byte-identically to its v2 source.
func TestConvertBundle(t *testing.T) {
	fx := getBundle(t)
	dst := filepath.Join(t.TempDir(), "converted.ufb3")
	if err := ConvertBundle(fx.dir, dst); err != nil {
		t.Fatal(err)
	}
	v2rec, err := LoadRecognizer(fx.dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := LoadRecognizer(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !reflect.DeepEqual(decodeAll(t, fx, rec), decodeAll(t, fx, v2rec)) {
		t.Fatal("converted bundle decodes differently from its v2 source")
	}
}

// TestSaveFlatSections pins the section set both writers emit: what a
// decode reads, without the retired packed and ARPA kinds.
func TestSaveFlatSections(t *testing.T) {
	want := []flatstore.SectionKind{
		flatstore.SectionMeta, flatstore.SectionAMStates, flatstore.SectionAMArcs,
		flatstore.SectionLMStates, flatstore.SectionLMArcs,
		flatstore.SectionLexicon, flatstore.SectionSenones,
	}
	saved, _ := saveFlatFixture(t)
	converted := filepath.Join(t.TempDir(), "golden.ufb3")
	if err := ConvertBundle(goldenV2Dir, converted); err != nil {
		t.Fatal(err)
	}
	for name, path := range map[string]string{"SaveFlat": saved, "ConvertBundle": converted} {
		b, err := flatstore.Open(path, flatstore.Options{VerifySections: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Kinds(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s wrote sections %v, want %v", name, got, want)
		}
		b.Close()
	}
}

// oldLayoutBundle rewrites the lean bundle at lean in the layout written
// before the packed and ARPA sections were retired: the same sections, then
// kinds 8, 9 and 10. Loaders skip those kinds, so their payload is arbitrary.
func oldLayoutBundle(t testing.TB, lean string) string {
	t.Helper()
	src, err := flatstore.Open(lean, flatstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	path := filepath.Join(t.TempDir(), "old-layout.ufb3")
	w, err := flatstore.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	add := func(kind flatstore.SectionKind, payload []byte) {
		t.Helper()
		if err := w.AddSection(kind, func(out io.Writer) error { _, e := out.Write(payload); return e }); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range src.Kinds() {
		payload, _ := src.Section(k)
		add(k, payload)
	}
	add(flatstore.SectionAMPacked, bytes.Repeat([]byte{0xa5}, 4096))
	add(flatstore.SectionLMPacked, bytes.Repeat([]byte{0x5a}, 2048))
	add(flatstore.SectionARPA, []byte("\\data\\\nngram 1=1\n\n\\1-grams:\n-1.0 <s>\n\n\\end\\\n"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOldLayoutBundleLoads keeps bundles written with the retired sections
// serving: both load paths skip kinds 8, 9 and 10, decode exactly as the
// lean bundle does, and count the whole file as resident.
func TestOldLayoutBundleLoads(t *testing.T) {
	lean, fx := saveFlatFixture(t)
	old := oldLayoutBundle(t, lean)
	st, err := os.Stat(old)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		load func(string) (*Recognizer, error)
	}{
		{"full-verify", LoadRecognizer},
		{"fast", LoadRecognizerFast},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leanRec, err := tc.load(lean)
			if err != nil {
				t.Fatal(err)
			}
			defer leanRec.Close()
			oldRec, err := tc.load(old)
			if err != nil {
				t.Fatalf("old-layout bundle no longer loads: %v", err)
			}
			defer oldRec.Close()
			if !reflect.DeepEqual(decodeAll(t, fx, oldRec), decodeAll(t, fx, leanRec)) {
				t.Fatal("old-layout bundle decodes differently from the lean one")
			}
			if oldRec.ResidentBytes() != st.Size() {
				t.Errorf("ResidentBytes %d != old-layout file size %d", oldRec.ResidentBytes(), st.Size())
			}
		})
	}
}

// TestFlatLoadSurvivesCorruption is the v3 half of the bundle-hardening
// contract: seeded corruptions (bit flips, truncations, zero runs, appended
// garbage via faultinject) plus a systematic truncation sweep must yield a
// typed *BundleError or a working recognizer — never a panic, never an
// untyped error.
func TestFlatLoadSurvivesCorruption(t *testing.T) {
	path, _ := saveFlatFixture(t)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check := func(p string) {
		t.Helper()
		rec, err := LoadRecognizer(p)
		if err != nil {
			var be *BundleError
			if !errors.As(err, &be) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		rec.Close()
	}

	var loadedOrRejected int
	for seed := int64(1); seed <= 60; seed++ {
		p := filepath.Join(t.TempDir(), "corrupt.ufb3")
		if err := os.WriteFile(p, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultinject.CorruptFile(p, seed); err != nil {
			t.Fatal(err)
		}
		check(p)
		loadedOrRejected++
	}
	// Systematic truncations across the whole file, including mid-header,
	// mid-table, and mid-section cuts.
	step := len(pristine)/64 + 1
	for n := 0; n < len(pristine); n += step {
		p := filepath.Join(t.TempDir(), "trunc.ufb3")
		if err := os.WriteFile(p, pristine[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		check(p)
	}
	// Every single-bit flip within the header+table region must be caught
	// by the header checksum (or the magic/version fields it covers).
	for bit := 0; bit < flatstore.HeaderSize*8; bit++ {
		bad := append([]byte(nil), pristine...)
		bad[bit/8] ^= 1 << (bit % 8)
		p := filepath.Join(t.TempDir(), "flip.ufb3")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := LoadRecognizer(p)
		if err == nil {
			rec.Close()
			t.Fatalf("header bit flip %d accepted by the full-verify loader", bit)
		}
		var be *BundleError
		if !errors.As(err, &be) {
			t.Fatalf("untyped error on header bit flip %d: %v", bit, err)
		}
	}
	if loadedOrRejected == 0 {
		t.Fatal("corruption loop did not run")
	}
}

// TestFlatLoadErrors covers the coarse failure modes with exact reasons.
func TestFlatLoadErrors(t *testing.T) {
	if _, err := LoadRecognizer(filepath.Join(t.TempDir(), "missing.ufb3")); err == nil {
		t.Error("expected error for a missing bundle")
	}
	p := filepath.Join(t.TempDir(), "not-a-bundle.ufb3")
	if err := os.WriteFile(p, []byte("certainly not a flat bundle"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadRecognizer(p)
	var be *BundleError
	if !errors.As(err, &be) {
		t.Fatalf("want *BundleError, got %v", err)
	}
	if be.Reason != "version" && be.Reason != "parse" && be.Reason != "structure" {
		t.Errorf("unexpected reason %q for junk file", be.Reason)
	}
	if _, err := LoadRecognizerFast(p); err == nil {
		t.Error("fast loader accepted junk")
	}
}
