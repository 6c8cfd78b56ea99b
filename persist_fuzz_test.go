package unfold

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/flatstore"
)

// FuzzLoadBundle replaces one bundle file with fuzzer-chosen bytes and
// asserts the loader's contract: LoadRecognizer either loads or returns a
// typed *BundleError — it never panics, never returns an untyped error, and
// never allocates unboundedly from attacker-controlled metadata (corrupt
// meta.json sizes are bounds-checked before any slice is sized).
//
// Run a short smoke regularly via `make fuzz-smoke`.
func FuzzLoadBundle(f *testing.F) {
	fx := getBundle(f)
	files := []string{"meta.json", "lexicon.txt", "am.wfst", "lm.arpa", "senones.bin"}

	// Seeds: every pristine file under every slot (so the fuzzer starts from
	// valid structures for each format), plus simple hand corruptions.
	for idx, name := range files {
		data, err := os.ReadFile(filepath.Join(fx.dir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(idx, data)
		if len(data) > 3 {
			f.Add(idx, data[:len(data)/2]) // truncation
			flipped := append([]byte(nil), data...)
			flipped[len(flipped)/3] ^= 0x40
			f.Add(idx, flipped) // bit flip
		}
	}
	f.Add(0, []byte(`{"format_version":2}`))
	f.Add(0, []byte(`{"format_version":2,"vocab":99999999,"num_senones":99999999,"lm_order":3}`))
	f.Add(2, []byte{})

	f.Fuzz(func(t *testing.T, idx int, data []byte) {
		if idx < 0 {
			idx = -idx
		}
		name := files[idx%len(files)]
		dir := t.TempDir()
		copyDir(t, fx.dir, dir)
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := LoadRecognizer(dir)
		if err != nil {
			var be *BundleError
			if !errors.As(err, &be) {
				t.Fatalf("untyped error from corrupted %s: %v", name, err)
			}
			return
		}
		if rec == nil {
			t.Fatalf("nil recognizer with nil error (%s)", name)
		}
	})
}

// FuzzLoadBundleV3 feeds fuzzer-chosen bytes to the flat-bundle loader and
// asserts the same contract as FuzzLoadBundle: LoadRecognizer (full verify)
// and LoadRecognizerFast (O(1) trusted path) either load or return a typed
// *BundleError — never panic, never return an untyped error. Seeds cover a
// pristine v3 bundle, the same bundle in the old layout with the retired
// sections, plus systematic truncations and faultinject mutations of the
// pristine one, so the fuzzer starts from structurally interesting corpora
// rather than random noise.
func FuzzLoadBundleV3(f *testing.F) {
	fx := getBundle(f)
	path := filepath.Join(f.TempDir(), "seed.ufb3")
	if err := fx.sys.SaveFlat(path); err != nil {
		f.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pristine)
	// A bundle in the layout written before the packed and ARPA sections
	// were retired: loaders must keep skipping kinds 8, 9 and 10.
	old, err := os.ReadFile(oldLayoutBundle(f, path))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	// Truncations at the format's boundaries: inside the header, inside the
	// section table, at a section edge, and mid-payload.
	for _, n := range []int{0, flatstore.HeaderSize / 2, flatstore.HeaderSize,
		flatstore.HeaderSize + flatstore.EntrySize/2, len(pristine) / 2, len(pristine) - 1} {
		if n <= len(pristine) {
			f.Add(pristine[:n:n])
		}
	}
	// Bit flips and structured mutations (zero runs, appends) via the fault
	// injector, at several seeds so different regions get hit.
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(faultinject.MutateBytes(rand.New(rand.NewSource(seed)), pristine))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.ufb3")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, load := range []func(string) (*Recognizer, error){LoadRecognizer, LoadRecognizerFast} {
			rec, err := load(p)
			if err != nil {
				var be *BundleError
				if !errors.As(err, &be) {
					t.Fatalf("untyped error from v3 loader: %v", err)
				}
				continue
			}
			if rec == nil {
				t.Fatal("nil recognizer with nil error")
			}
			rec.Close()
		}
	})
}
