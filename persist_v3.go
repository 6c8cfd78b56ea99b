package unfold

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/acoustic"
	"repro/internal/am"
	"repro/internal/flatstore"
	"repro/internal/wfst"
)

// Bundle format v3 — the zero-copy flat model store (docs/MODEL_STORE.md).
// Where v2 is a directory of files the loader parses into pointer-rich
// graphs, v3 is a single flatstore container whose state/arc sections ARE
// the decoder's CSR arrays: LoadRecognizer maps the file and constructs
// *wfst.WFST views over the mapping (wfst.NewFromFlat), so load time is
// independent of arc count and resident memory is bounded by the file size.
// A bundle holds only what a decode reads; the retired packed and ARPA
// kinds of older bundles are skipped on load.
//
// flatVersion is the meta format_version a v3 bundle carries.
const flatVersion = 3

// SaveFlat writes the system's models as a v3 flat bundle at path
// (conventionally *.ufb3). The write is atomic: temp file + rename.
func (s *System) SaveFlat(path string) error {
	meta := bundleMeta{
		FormatVersion:  flatVersion,
		TaskName:       s.Task.Spec.Name,
		Scorer:         s.Task.Spec.Scorer,
		ScorerSeed:     s.Task.Spec.Seed,
		StatesPerPhone: s.Task.AM.Topo.StatesPerPhone,
		SelfLoopProb:   s.Task.AM.Topo.SelfLoopProb,
		Vocab:          s.Task.Lex.V(),
		LMOrder:        s.Task.LM.Order,
		NumSenones:     s.Task.AM.NumSenones,
		FeatDim:        s.Task.Senones.Dim,
		AM:             graphMetaOf(s.Task.AM.G),
		LM:             graphMetaOf(s.Task.LMGraph.G),
	}
	return writeFlatBundle(path, meta, s.Task.AM.G, s.Task.LMGraph.G,
		func(w io.Writer) error { return am.WriteLexicon(s.Task.Lex, w) },
		func(w io.Writer) error { return acoustic.WriteSenoneModel(s.Task.Senones, w) })
}

// flatGraphMeta records what a flat CSR section pair cannot express itself:
// the start state, the state count (cross-checked against the section
// length), and the input-sorted flag.
type flatGraphMeta struct {
	Start  int32 `json:"start"`
	States int   `json:"states"`
	Sorted bool  `json:"sorted"`
}

// graphMetaOf captures a graph's flat metadata.
func graphMetaOf(g *wfst.WFST) *flatGraphMeta {
	return &flatGraphMeta{Start: int32(g.Start()), States: g.NumStates(), Sorted: g.InSorted()}
}

// writeFlatBundle assembles the v3 container from its parts.
func writeFlatBundle(path string, meta bundleMeta, amG, lmG *wfst.WFST,
	lexicon, senones func(io.Writer) error) error {
	mb, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	w, err := flatstore.Create(path)
	if err != nil {
		return err
	}
	add := func(kind flatstore.SectionKind, write func(io.Writer) error) {
		if err == nil {
			err = w.AddSection(kind, write)
		}
	}
	err = nil
	add(flatstore.SectionMeta, func(out io.Writer) error { _, e := out.Write(mb); return e })
	add(flatstore.SectionAMStates, func(out io.Writer) error { return wfst.WriteFlatStates(amG, out) })
	add(flatstore.SectionAMArcs, func(out io.Writer) error { return wfst.WriteFlatArcs(amG, out) })
	add(flatstore.SectionLMStates, func(out io.Writer) error { return wfst.WriteFlatStates(lmG, out) })
	add(flatstore.SectionLMArcs, func(out io.Writer) error { return wfst.WriteFlatArcs(lmG, out) })
	add(flatstore.SectionLexicon, lexicon)
	add(flatstore.SectionSenones, senones)
	if err != nil {
		return err
	}
	return w.Close()
}

// LoadRecognizerFast opens a v3 bundle on the O(1) trusted path: the file
// is mapped, only the header and section-table checksums are verified, and
// graph construction is the O(states) flat view — no arc-table scan, no
// per-arc work, no full-file read. Use LoadRecognizer for untrusted input;
// it adds per-section checksums and full structural validation.
//
// The Recognizer reads through the mapping until Close; see
// (*Recognizer).Close.
func LoadRecognizerFast(path string) (*Recognizer, error) {
	return loadFlat(path, false)
}

// loadFlat opens a v3 bundle; verify selects the full-integrity path
// (per-section CRCs + structural validation) over the O(1) trusted one.
func loadFlat(path string, verify bool) (rec *Recognizer, err error) {
	defer func() {
		if r := recover(); r != nil {
			rec, err = nil, &BundleError{Reason: "panic", Cause: fmt.Errorf("recovered: %v", r)}
		}
	}()

	b, err := flatstore.Open(path, flatstore.Options{VerifySections: verify})
	if err != nil {
		return nil, flatErr(err)
	}
	defer func() {
		if err != nil {
			b.Close()
		}
	}()

	mb, ferr := b.MustSection(flatstore.SectionMeta)
	if ferr != nil {
		return nil, flatErr(ferr)
	}
	var meta bundleMeta
	if err := json.Unmarshal(mb, &meta); err != nil {
		return nil, &BundleError{File: "meta", Reason: "parse", Cause: err}
	}
	if meta.FormatVersion != flatVersion {
		return nil, &BundleError{File: "meta", Reason: "version",
			Cause: fmt.Errorf("flat bundle declares format %d, want %d", meta.FormatVersion, flatVersion)}
	}
	if meta.AM == nil || meta.LM == nil {
		return nil, &BundleError{File: "meta", Reason: "structure",
			Cause: fmt.Errorf("flat bundle metadata lacks graph descriptors")}
	}
	if err := boundMeta(meta, "meta"); err != nil {
		return nil, err
	}
	if meta.AM.States < 0 || meta.AM.States > 1<<28 || meta.LM.States < 0 || meta.LM.States > 1<<28 {
		return nil, &BundleError{File: "meta", Reason: "structure", Cause: fmt.Errorf("implausible graph state counts %d/%d", meta.AM.States, meta.LM.States)}
	}

	r := &Recognizer{TaskName: meta.TaskName, bundle: b}
	lex, ferr := b.MustSection(flatstore.SectionLexicon)
	if ferr != nil {
		return nil, flatErr(ferr)
	}
	if r.Lex, err = am.ReadLexicon(bytes.NewReader(lex)); err != nil {
		return nil, &BundleError{File: "lexicon", Reason: "parse", Cause: err}
	}
	sen, ferr := b.MustSection(flatstore.SectionSenones)
	if ferr != nil {
		return nil, flatErr(ferr)
	}
	if r.Senones, err = acoustic.ReadSenoneModel(bytes.NewReader(sen)); err != nil {
		return nil, &BundleError{File: "senones", Reason: "parse", Cause: err}
	}

	if r.AMGraph, err = flatGraph(b, flatstore.SectionAMStates, flatstore.SectionAMArcs, *meta.AM); err != nil {
		return nil, err
	}
	if r.LMGraph, err = flatGraph(b, flatstore.SectionLMStates, flatstore.SectionLMArcs, *meta.LM); err != nil {
		return nil, err
	}

	if verify {
		if err := r.AMGraph.Validate(); err != nil {
			return nil, &BundleError{File: "am-states", Reason: "structure", Cause: err}
		}
		if err := r.LMGraph.Validate(); err != nil {
			return nil, &BundleError{File: "lm-states", Reason: "structure", Cause: err}
		}
		if err := validateBundle(meta, r); err != nil {
			return nil, err
		}
	}

	if err := r.finish(meta, "meta"); err != nil {
		return nil, err
	}
	return r, nil
}

// flatGraph builds the zero-copy WFST view over a state/arc section pair.
func flatGraph(b *flatstore.Bundle, states, arcs flatstore.SectionKind, gm flatGraphMeta) (*wfst.WFST, error) {
	sb, err := b.MustSection(states)
	if err != nil {
		return nil, flatErr(err)
	}
	ab, err := b.MustSection(arcs)
	if err != nil {
		return nil, flatErr(err)
	}
	g, gerr := wfst.NewFromFlat(wfst.StateID(gm.Start), gm.States, sb, ab, gm.Sorted)
	if gerr != nil {
		return nil, &BundleError{File: states.String(), Reason: "structure", Cause: gerr}
	}
	return g, nil
}

// flatErr maps a flatstore error into the bundle error taxonomy callers
// already handle.
func flatErr(err error) error {
	var fe *flatstore.Error
	if !errors.As(err, &fe) {
		return &BundleError{Reason: "io", Cause: err}
	}
	reason := "parse"
	switch fe.Reason {
	case "io":
		reason = "io"
	case "fault":
		reason = "panic"
	case "checksum":
		reason = "checksum"
	case "magic", "version":
		reason = "version"
	case "section", "bounds", "table", "header":
		reason = "structure"
	}
	file := ""
	if fe.Section != 0 {
		file = fe.Section.String()
	}
	return &BundleError{File: file, Reason: reason, Cause: err}
}

// ConvertBundle rewrites a v2 directory bundle as a v3 flat bundle at
// dstPath. The graphs, lexicon and senone model carried over are the ones
// the v2 loader itself produces, so recognition output from the converted
// bundle is byte-identical to the v2 path (the CI format-compat job asserts
// this).
func ConvertBundle(srcDir, dstPath string) error {
	r, err := LoadRecognizer(srcDir)
	if err != nil {
		return err
	}
	mb, err := os.ReadFile(filepath.Join(srcDir, metaFile))
	if err != nil {
		return &BundleError{File: metaFile, Reason: "io", Cause: err}
	}
	var meta bundleMeta
	if err := json.Unmarshal(mb, &meta); err != nil {
		return &BundleError{File: metaFile, Reason: "parse", Cause: err}
	}
	meta.FormatVersion = flatVersion
	meta.Checksums = nil // superseded by the container's CRCs
	meta.AM = graphMetaOf(r.AMGraph)
	meta.LM = graphMetaOf(r.LMGraph)

	return writeFlatBundle(dstPath, meta, r.AMGraph, r.LMGraph,
		func(w io.Writer) error { return am.WriteLexicon(r.Lex, w) },
		func(w io.Writer) error { return acoustic.WriteSenoneModel(r.Senones, w) })
}

// Close releases the bundle mapping backing a v3-loaded recognizer (no-op
// for v2 loads). The recognizer must not decode afterwards: its graphs read
// through the mapping. The serving registry drains in-flight requests
// before calling this.
func (r *Recognizer) Close() error {
	if r.bundle == nil {
		return nil
	}
	b := r.bundle
	r.bundle = nil
	return b.Close()
}

// Recheck re-verifies the bundle mapping backing a v3-loaded recognizer:
// the cheap pass recomputes the header and section-table CRC over the
// mapped bytes against the value remembered at load; full additionally
// re-verifies every section payload. Damage (in-place file mutation, a read
// fault on the mapping) surfaces as a typed *BundleError — never a crash —
// which is what lets the serving layer quarantine a sick model while the
// process keeps serving the others. A v2 (directory) load has no mapping to
// re-verify and always passes.
func (r *Recognizer) Recheck(full bool) error {
	if r.bundle == nil {
		return nil
	}
	if err := r.bundle.Recheck(full); err != nil {
		return flatErr(err)
	}
	return nil
}

// ResidentBytes reports the memory the recognizer's model data can pin:
// the bundle file size for a mapped v3 load, or the in-memory graph
// footprint for a v2 (or heap-fallback) load.
func (r *Recognizer) ResidentBytes() int64 {
	if r.bundle != nil {
		return r.bundle.SizeBytes()
	}
	var n int64
	if r.AMGraph != nil {
		n += r.AMGraph.SizeBytes()
	}
	if r.LMGraph != nil {
		n += r.LMGraph.SizeBytes()
	}
	return n
}

// Mapped reports whether the recognizer decodes through a memory-mapped
// bundle (false for v2 directory loads and the io.ReaderAt fallback).
func (r *Recognizer) Mapped() bool { return r.bundle != nil && r.bundle.Mapped() }
