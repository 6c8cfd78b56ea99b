package unfold

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/acoustic"
	"repro/internal/am"
	"repro/internal/lm"
	"repro/internal/task"
	"repro/internal/wfst"
)

// Model-bundle persistence: Save writes everything needed to recognize
// speech into a directory, and LoadRecognizer restores a working decoder
// without rebuilding the task. Files (bundle format v2):
//
//	meta.json    — scorer kind, topology, dimensions, seeds, and a SHA-256
//	               checksum per data file
//	lexicon.txt  — word pronunciations (am.WriteLexicon format)
//	am.wfst      — acoustic transducer (wfst binary format)
//	lm.arpa      — back-off language model (ARPA text)
//	senones.bin  — senone template model (acoustic binary format)
//
// Every file is written to a temp name and renamed into place, and
// meta.json is written last, so a crash mid-Save never leaves a bundle
// that LoadRecognizer would partially accept. LoadRecognizer verifies the
// checksums and runs structural validation before constructing a decoder;
// any failure is reported as a typed *BundleError, never a panic.
//
// The serving-oriented v3 flat bundle (a single zero-copy file; SaveFlat,
// LoadRecognizerFast, ConvertBundle) lives in persist_v3.go; LoadRecognizer
// dispatches between the two formats by whether the path is a directory.
// Byte-level format spec for both: docs/MODEL_STORE.md.
const (
	metaFile    = "meta.json"
	lexiconFile = "lexicon.txt"
	amFile      = "am.wfst"
	lmFile      = "lm.arpa"
	senonesFile = "senones.bin"

	// bundleVersion is the current format: v2 added per-file SHA-256
	// checksums and the feature dimension to meta.json. v1 bundles (no
	// checksums) are rejected; re-save them with this version.
	bundleVersion = 2
)

// BundleError is a typed model-bundle failure from Save or LoadRecognizer:
// a missing or unreadable file, a checksum mismatch, a parse failure, or a
// structural inconsistency between the bundle's components.
type BundleError struct {
	// File is the offending file within the bundle ("" when the failure is
	// directory-level).
	File string
	// Reason is a short machine-stable class: "io", "parse", "checksum",
	// "version", "structure", or "panic".
	Reason string
	// Cause is the underlying error, exposed via Unwrap.
	Cause error
}

// Error implements the error interface.
func (e *BundleError) Error() string {
	if e.File == "" {
		return fmt.Sprintf("unfold: bundle %s: %v", e.Reason, e.Cause)
	}
	return fmt.Sprintf("unfold: bundle file %s: %s: %v", e.File, e.Reason, e.Cause)
}

// Unwrap exposes the underlying cause to errors.Is and errors.As.
func (e *BundleError) Unwrap() error { return e.Cause }

// bundleMeta is the JSON header of a saved model directory.
type bundleMeta struct {
	FormatVersion  int             `json:"format_version"`
	TaskName       string          `json:"task_name"`
	Scorer         task.ScorerKind `json:"scorer"`
	ScorerSeed     int64           `json:"scorer_seed"`
	StatesPerPhone int             `json:"states_per_phone"`
	SelfLoopProb   float64         `json:"self_loop_prob"`
	Vocab          int             `json:"vocab"`
	LMOrder        int             `json:"lm_order"`
	NumSenones     int             `json:"num_senones"`
	FeatDim        int             `json:"feat_dim"`
	// Checksums maps each data file name to the hex SHA-256 of its
	// contents. Written by Save, verified by LoadRecognizer. v3 bundles
	// omit it: integrity moves to the container's CRC-32s.
	Checksums map[string]string `json:"checksums,omitempty"`

	// AM and LM describe the flat graph sections of a v3 bundle (start
	// state, state count, sorted flag); nil in v2 metadata.
	AM *flatGraphMeta `json:"am_graph,omitempty"`
	LM *flatGraphMeta `json:"lm_graph,omitempty"`
}

// Save writes the system's models into dir (created if needed). DNN/RNN
// scorer weights are regenerated from the recorded seed on load, so the
// bundle stays compact. Each file lands via temp-file + rename and
// meta.json (carrying all checksums) is written last, so readers never see
// a half-written bundle.
func (s *System) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta := bundleMeta{
		FormatVersion:  bundleVersion,
		TaskName:       s.Task.Spec.Name,
		Scorer:         s.Task.Spec.Scorer,
		ScorerSeed:     s.Task.Spec.Seed,
		StatesPerPhone: s.Task.AM.Topo.StatesPerPhone,
		SelfLoopProb:   s.Task.AM.Topo.SelfLoopProb,
		Vocab:          s.Task.Lex.V(),
		LMOrder:        s.Task.LM.Order,
		NumSenones:     s.Task.AM.NumSenones,
		FeatDim:        s.Task.Senones.Dim,
		Checksums:      map[string]string{},
	}
	files := []struct {
		name  string
		write func(io.Writer) error
	}{
		{lexiconFile, func(w io.Writer) error { return am.WriteLexicon(s.Task.Lex, w) }},
		{amFile, func(w io.Writer) error { return wfst.Write(s.Task.AM.G, w) }},
		{lmFile, func(w io.Writer) error { return s.Task.LM.WriteARPA(w) }},
		{senonesFile, func(w io.Writer) error { return acoustic.WriteSenoneModel(s.Task.Senones, w) }},
	}
	for _, f := range files {
		sum, err := writeFileAtomic(dir, f.name, f.write)
		if err != nil {
			return err
		}
		meta.Checksums[f.name] = sum
	}
	mb, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	_, err = writeFileAtomic(dir, metaFile, func(w io.Writer) error {
		_, werr := w.Write(mb)
		return werr
	})
	return err
}

// writeFileAtomic writes name under dir via a temp file renamed into place
// and returns the hex SHA-256 of the written contents. A crash at any
// point leaves either the old file or no file — never a torn one.
func writeFileAtomic(dir, name string, write func(io.Writer) error) (string, error) {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	h := sha256.New()
	if err := write(io.MultiWriter(tmp, h)); err != nil {
		tmp.Close()
		return "", fmt.Errorf("unfold: writing %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("unfold: writing %s: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// LoadRecognizer restores a model bundle written by Save (a v2 directory)
// or SaveFlat (a v3 flat file); the two are distinguished by whether path
// is a directory. It never trusts the bytes on disk: v2 verifies every data
// file's SHA-256 against meta.json before parsing, v3 verifies the
// container's CRC-32s (header, table, and every section), both
// cross-validate the parsed components (WFST arc/state bounds against the
// senone and vocabulary ranges, lexicon/vocab agreement), and any failure —
// including a panic in a parser — surfaces as a typed *BundleError. For the
// O(1) trusted v3 load path see LoadRecognizerFast.
func LoadRecognizer(path string) (*Recognizer, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, &BundleError{Reason: "io", Cause: err}
	}
	if !st.IsDir() {
		return loadFlat(path, true)
	}
	return loadV2(path)
}

// loadV2 restores a v2 directory bundle.
func loadV2(dir string) (rec *Recognizer, err error) {
	defer func() {
		// Belt and braces for untrusted bytes: a panic escaping a parser
		// becomes a typed error instead of killing the process.
		if r := recover(); r != nil {
			rec, err = nil, &BundleError{Reason: "panic", Cause: fmt.Errorf("recovered: %v", r)}
		}
	}()

	mb, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, &BundleError{File: metaFile, Reason: "io", Cause: err}
	}
	var meta bundleMeta
	if err := json.Unmarshal(mb, &meta); err != nil {
		return nil, &BundleError{File: metaFile, Reason: "parse", Cause: err}
	}
	if meta.FormatVersion != bundleVersion {
		return nil, &BundleError{File: metaFile, Reason: "version",
			Cause: fmt.Errorf("bundle version %d, want %d (re-save with this release)", meta.FormatVersion, bundleVersion)}
	}
	if err := boundMeta(meta, metaFile); err != nil {
		return nil, err
	}

	// readVerified loads one data file, checks its recorded checksum, and
	// hands the verified bytes to the parser.
	readVerified := func(name string, parse func([]byte) error) error {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return &BundleError{File: name, Reason: "io", Cause: err}
		}
		want, ok := meta.Checksums[name]
		if !ok {
			return &BundleError{File: name, Reason: "checksum", Cause: fmt.Errorf("no checksum recorded in %s", metaFile)}
		}
		if got := sha256.Sum256(data); hex.EncodeToString(got[:]) != want {
			return &BundleError{File: name, Reason: "checksum", Cause: fmt.Errorf("SHA-256 mismatch (bundle corrupted or tampered)")}
		}
		if err := parse(data); err != nil {
			return &BundleError{File: name, Reason: "parse", Cause: err}
		}
		return nil
	}

	r := &Recognizer{TaskName: meta.TaskName}
	if err := readVerified(lexiconFile, func(b []byte) error {
		var e error
		r.Lex, e = am.ReadLexicon(bytes.NewReader(b))
		return e
	}); err != nil {
		return nil, err
	}
	if err := readVerified(amFile, func(b []byte) error {
		var e error
		r.AMGraph, e = wfst.Read(bytes.NewReader(b))
		return e
	}); err != nil {
		return nil, err
	}
	if err := readVerified(lmFile, func(b []byte) error {
		var e error
		r.Model, e = lm.ReadARPA(bytes.NewReader(b), meta.Vocab)
		return e
	}); err != nil {
		return nil, err
	}
	if err := readVerified(senonesFile, func(b []byte) error {
		var e error
		r.Senones, e = acoustic.ReadSenoneModel(bytes.NewReader(b))
		return e
	}); err != nil {
		return nil, err
	}

	if err := validateBundle(meta, r); err != nil {
		return nil, err
	}

	gr, err := r.Model.BuildGraph()
	if err != nil {
		return nil, &BundleError{File: lmFile, Reason: "structure", Cause: err}
	}
	r.LMGraph = gr.G

	if err := r.finish(meta, metaFile); err != nil {
		return nil, err
	}
	return r, nil
}

// finish is both loaders' tail: it gives a loaded recognizer the scorer its
// header names and its shared decoder. file names the header in a
// BundleError.
//
// GMMs are a pure function of the senone model; DNN/RNN weights are
// regenerated from the recorded seed. Task.Build draws from one rng stream
// (lexicon, grammar, corpus draws), so exact DNN replay would require
// replaying the whole build; the seed-derived sub-rng here is documented as
// a refresh: templates (the discriminative part) are loaded exactly, only
// the perturbation stack differs.
func (r *Recognizer) finish(meta bundleMeta, file string) error {
	switch meta.Scorer {
	case task.ScorerGMM:
		r.Scorer = acoustic.NewGMMScorer(r.Senones)
	case task.ScorerDNN:
		r.Scorer = acoustic.NewDNNScorer(r.Senones, rand.New(rand.NewSource(meta.ScorerSeed)), 0, 0)
	case task.ScorerRNN:
		r.Scorer = acoustic.NewRNNScorer(r.Senones, rand.New(rand.NewSource(meta.ScorerSeed)), 0)
	default:
		return &BundleError{File: file, Reason: "structure",
			Cause: fmt.Errorf("unknown scorer kind %q", meta.Scorer)}
	}
	if err := r.start(); err != nil {
		return &BundleError{Reason: "structure", Cause: err}
	}
	return nil
}

// boundMeta bounds the header's counts before any of them sizes an
// allocation. file names the header in a BundleError.
func boundMeta(meta bundleMeta, file string) error {
	switch {
	case meta.Vocab < 1 || meta.Vocab > 1<<22:
		return &BundleError{File: file, Reason: "structure", Cause: fmt.Errorf("implausible vocab %d", meta.Vocab)}
	case meta.NumSenones < 1 || meta.NumSenones > 1<<22:
		return &BundleError{File: file, Reason: "structure", Cause: fmt.Errorf("implausible senone count %d", meta.NumSenones)}
	case meta.LMOrder < 1 || meta.LMOrder > 3:
		return &BundleError{File: file, Reason: "structure", Cause: fmt.Errorf("LM order %d outside [1,3]", meta.LMOrder)}
	case meta.FeatDim < 1 || meta.FeatDim > 1<<16:
		return &BundleError{File: file, Reason: "structure", Cause: fmt.Errorf("implausible feature dim %d", meta.FeatDim)}
	}
	return nil
}

// validateBundle cross-checks the parsed components against each other and
// against the header — the structural half of bundle verification, catching
// corruptions that survive per-file parsing (or bundles assembled from
// mismatched halves, which checksums alone cannot see).
func validateBundle(meta bundleMeta, r *Recognizer) error {
	if got := r.Lex.V(); got != meta.Vocab {
		return &BundleError{File: lexiconFile, Reason: "structure",
			Cause: fmt.Errorf("lexicon has %d words, header says %d", got, meta.Vocab)}
	}
	if r.Lex.NumPhones < 1 {
		return &BundleError{File: lexiconFile, Reason: "structure",
			Cause: fmt.Errorf("lexicon has no phone inventory")}
	}
	if got := r.Senones.NumSenones; got != meta.NumSenones {
		return &BundleError{File: senonesFile, Reason: "structure",
			Cause: fmt.Errorf("senone model has %d senones, header says %d", got, meta.NumSenones)}
	}
	if got := r.Senones.Dim; got != meta.FeatDim {
		return &BundleError{File: senonesFile, Reason: "structure",
			Cause: fmt.Errorf("senone model dim %d, header says %d", got, meta.FeatDim)}
	}
	if !(r.Senones.Sigma > 0) { // rejects zero, negatives, and NaN
		return &BundleError{File: senonesFile, Reason: "structure",
			Cause: fmt.Errorf("non-positive model sigma %v", r.Senones.Sigma)}
	}
	// Model is only materialized by v2 loads; v3 keeps the ARPA text as an
	// unparsed section and decodes from the flat LM graph.
	if r.Model != nil {
		if got := r.Model.Order; got != meta.LMOrder {
			return &BundleError{File: lmFile, Reason: "structure",
				Cause: fmt.Errorf("ARPA order %d, header says %d", got, meta.LMOrder)}
		}
	}
	// AM arc labels must stay inside the senone and vocabulary ranges the
	// decoder will index with them (wfst.Read already bounds destinations).
	for s := wfst.StateID(0); int(s) < r.AMGraph.NumStates(); s++ {
		for i, a := range r.AMGraph.Arcs(s) {
			if int(a.In) > meta.NumSenones {
				return &BundleError{File: amFile, Reason: "structure",
					Cause: fmt.Errorf("state %d arc %d: senone label %d > %d", s, i, a.In, meta.NumSenones)}
			}
			if int(a.Out) > meta.Vocab {
				return &BundleError{File: amFile, Reason: "structure",
					Cause: fmt.Errorf("state %d arc %d: word label %d > vocab %d", s, i, a.Out, meta.Vocab)}
			}
		}
	}
	return nil
}
