// Package flatstore implements the v3 flat model-bundle container: a single
// mmap-friendly file holding the recognizer's datasets as aligned,
// checksummed byte sections that readers use in place — the zero-copy
// serving format specified in docs/MODEL_STORE.md.
//
// The container knows nothing about WFSTs or acoustic models; it stores
// opaque sections identified by a kind tag. The structure is:
//
//	header        48 bytes, fixed width
//	section table SectionCount × 32-byte entries
//	padding       to the first 16-byte boundary
//	section data  each section 16-byte aligned, CRC-32 checksummed
//
// Opening a bundle verifies the header and table in O(1) work; per-section
// payload checksums are verified only on request (VerifySections), so a
// trusted bundle loads in constant time regardless of model size while an
// untrusted one can still be fully checked. See docs/MODEL_STORE.md for the
// byte-level layout, the trust model, and forward-compatibility rules.
package flatstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Format constants. Every multi-byte field in the container is
// little-endian; see docs/MODEL_STORE.md §2.
const (
	// Magic is the 4-byte file signature, "UFB3" in ASCII.
	Magic = uint32('U') | uint32('F')<<8 | uint32('B')<<16 | uint32('3')<<24
	// Version is the container format version this package reads and writes.
	Version = 3
	// HeaderSize is the fixed header length in bytes.
	HeaderSize = 48
	// EntrySize is the per-section table entry length in bytes.
	EntrySize = 32
	// Align is the alignment of every section's data offset. 16 bytes keeps
	// any fixed-width record layout (8-byte flat states, 16-byte flat arcs)
	// naturally aligned inside a page-aligned mapping.
	Align = 16
	// maxSections bounds the table a header may declare, so a corrupt count
	// cannot size a large allocation before the table checksum is checked.
	maxSections = 1024
)

// SectionKind tags a section's contents. Kinds are stable format ABI:
// values are never reused, and readers must skip kinds they do not know
// (forward compatibility; docs/MODEL_STORE.md §5).
type SectionKind uint32

const (
	// SectionMeta is the JSON bundle metadata (scorer kind, dimensions,
	// graph start states — the fields persist.go's bundleMeta defines).
	SectionMeta SectionKind = 1
	// SectionAMStates is the acoustic-model WFST's flat state table
	// (wfst.FlatStateBytes records, including the sentinel).
	SectionAMStates SectionKind = 2
	// SectionAMArcs is the acoustic-model WFST's flat arc table.
	SectionAMArcs SectionKind = 3
	// SectionLMStates is the language-model WFST's flat state table.
	SectionLMStates SectionKind = 4
	// SectionLMArcs is the language-model WFST's flat arc table.
	SectionLMArcs SectionKind = 5
	// SectionLexicon is the pronunciation lexicon (am.WriteLexicon text).
	SectionLexicon SectionKind = 6
	// SectionSenones is the senone template model (acoustic binary format).
	SectionSenones SectionKind = 7
	// SectionAMPacked, SectionLMPacked and SectionARPA are retired: bundles
	// written before the store held only what a decode reads carry the
	// compressed AM and LM (the internal/compress bitpack encodings) and the
	// back-off LM as ARPA text under these kinds. No writer emits them and no
	// loader reads them; readers skip them like any other kind, and the
	// numbers are never reused. A packed search that earns its place in a
	// bundle takes a new kind.
	SectionAMPacked SectionKind = 8
	SectionLMPacked SectionKind = 9
	SectionARPA     SectionKind = 10
)

// String names a section kind for error messages and tool output.
func (k SectionKind) String() string {
	switch k {
	case SectionMeta:
		return "meta"
	case SectionAMStates:
		return "am-states"
	case SectionAMArcs:
		return "am-arcs"
	case SectionLMStates:
		return "lm-states"
	case SectionLMArcs:
		return "lm-arcs"
	case SectionLexicon:
		return "lexicon"
	case SectionSenones:
		return "senones"
	case SectionAMPacked:
		return "am-packed"
	case SectionLMPacked:
		return "lm-packed"
	case SectionARPA:
		return "lm-arpa"
	default:
		return fmt.Sprintf("kind-%d", uint32(k))
	}
}

// Error is a typed flat-bundle failure. Reason is a short machine-stable
// class ("io", "magic", "version", "header", "table", "checksum",
// "section", "bounds"); Section names the offending section when the
// failure is section-scoped.
type Error struct {
	Section SectionKind
	Reason  string
	Cause   error
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Section != 0 {
		return fmt.Sprintf("flatstore: section %s: %s: %v", e.Section, e.Reason, e.Cause)
	}
	return fmt.Sprintf("flatstore: %s: %v", e.Reason, e.Cause)
}

// Unwrap exposes the underlying cause to errors.Is and errors.As.
func (e *Error) Unwrap() error { return e.Cause }

func errf(section SectionKind, reason, format string, args ...any) *Error {
	return &Error{Section: section, Reason: reason, Cause: fmt.Errorf(format, args...)}
}

// section is one parsed table entry.
type section struct {
	kind   SectionKind
	offset uint64
	length uint64
	crc    uint32
}

// crcTable is the polynomial every container checksum uses (CRC-32/IEEE,
// the common zlib/gzip polynomial).
var crcTable = crc32.IEEETable

// Writer assembles a bundle file. Sections are streamed in call order;
// Close finalizes the header and table and atomically renames the file
// into place, so a crash mid-write never leaves a partial bundle under the
// target name.
type Writer struct {
	f    *os.File
	path string // final path (f is the temp file)
	// buf sits under each section's counting writer and over the file and
	// crc, so a section writer's 4-byte records reach both in 1 MiB blocks.
	// AddSection flushes it before returning: nothing is ever pending when
	// Close writes the header at offset 0 and syncs.
	buf      *bufio.Writer
	crc      hash.Hash32
	off      uint64
	sections []section
	err      error
}

// Create starts writing a bundle at path via a temp file in the same
// directory.
func Create(path string) (*Writer, error) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, &Error{Reason: "io", Cause: err}
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, &Error{Reason: "io", Cause: err}
	}
	w := &Writer{f: f, path: path, off: HeaderSize, crc: crc32.New(crcTable)}
	w.buf = bufio.NewWriterSize(io.MultiWriter(f, w.crc), 1<<20)
	return w, nil
}

// AddSection appends one section whose payload is produced by write. The
// payload is checksummed as it streams; offsets and alignment are handled
// here. Sections must be added before Close; duplicate kinds are rejected.
func (w *Writer) AddSection(kind SectionKind, write func(io.Writer) error) error {
	if w.err != nil {
		return w.err
	}
	for _, s := range w.sections {
		if s.kind == kind {
			return w.fail(errf(kind, "section", "duplicate section"))
		}
	}
	if len(w.sections) == 0 {
		// Data offsets depend on the final table size, unknown until Close.
		// Rather than buffering payloads, reserve one fixed gap for the
		// header plus a maxSections-entry table; Close writes the real table
		// into it and the zero tail is dead space readers never touch
		// (offsets are explicit).
		if _, err := w.f.Write(make([]byte, headerReserve)); err != nil {
			return w.fail(&Error{Reason: "io", Cause: err})
		}
		w.off = headerReserve
	}
	if pad := (Align - w.off%Align) % Align; pad != 0 {
		if _, err := w.f.Write(make([]byte, pad)); err != nil {
			return w.fail(&Error{Reason: "io", Cause: err})
		}
		w.off += pad
	}
	w.crc.Reset()
	cw := &countingWriter{w: w.buf}
	err := write(cw)
	if err == nil {
		err = w.buf.Flush()
	}
	if err != nil {
		return w.fail(&Error{Section: kind, Reason: "io", Cause: err})
	}
	w.sections = append(w.sections, section{kind: kind, offset: w.off, length: cw.n, crc: w.crc.Sum32()})
	w.off += cw.n
	return nil
}

// headerReserve is the fixed space Close's header and table are written
// into: enough for maxSections entries, so AddSection never needs to move
// data. A bundle has ~10 sections; the ~32 KB ceiling is noise next to the
// datasets.
const headerReserve = HeaderSize + maxSections*EntrySize

// countingWriter tracks bytes written through it.
type countingWriter struct {
	w io.Writer
	n uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}

func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
		w.f.Close()
		os.Remove(w.f.Name())
	}
	return w.err
}

// Close finalizes the bundle: it writes the header and section table,
// syncs, and renames the temp file onto the target path. On error the temp
// file is removed and the target is untouched.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if len(w.sections) == 0 {
		return w.fail(&Error{Reason: "section", Cause: fmt.Errorf("bundle has no sections")})
	}
	fileSize := w.off
	table := make([]byte, len(w.sections)*EntrySize)
	for i, s := range w.sections {
		e := table[i*EntrySize:]
		binary.LittleEndian.PutUint32(e[0:4], uint32(s.kind))
		binary.LittleEndian.PutUint64(e[8:16], s.offset)
		binary.LittleEndian.PutUint64(e[16:24], s.length)
		binary.LittleEndian.PutUint32(e[24:28], s.crc)
	}
	hdr := make([]byte, HeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint32(hdr[8:12], 0) // flags: none defined yet
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(w.sections)))
	binary.LittleEndian.PutUint64(hdr[16:24], fileSize)
	binary.LittleEndian.PutUint64(hdr[24:32], HeaderSize) // table offset
	h := crc32.New(crcTable)
	h.Write(hdr[:HeaderSize-4])
	h.Write(table)
	binary.LittleEndian.PutUint32(hdr[HeaderSize-4:], h.Sum32())
	if _, err := w.f.WriteAt(hdr, 0); err != nil {
		return w.fail(&Error{Reason: "io", Cause: err})
	}
	if _, err := w.f.WriteAt(table, HeaderSize); err != nil {
		return w.fail(&Error{Reason: "io", Cause: err})
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(&Error{Reason: "io", Cause: err})
	}
	if err := w.f.Close(); err != nil {
		w.err = &Error{Reason: "io", Cause: err}
		os.Remove(w.f.Name())
		return w.err
	}
	if err := os.Rename(w.f.Name(), w.path); err != nil {
		w.err = &Error{Reason: "io", Cause: err}
		os.Remove(w.f.Name())
		return w.err
	}
	w.err = &Error{Reason: "io", Cause: fmt.Errorf("writer closed")} // block reuse
	return nil
}
