package flatstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// writeTestBundle builds a bundle with a few sections of varied sizes and
// returns its path plus the payloads by kind.
func writeTestBundle(t *testing.T) (string, map[SectionKind][]byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.ufb3")
	payloads := map[SectionKind][]byte{
		SectionMeta:     []byte(`{"format_version":3}`),
		SectionAMStates: bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 5),
		SectionAMArcs:   bytes.Repeat([]byte{9}, 16*7),
		SectionLexicon:  []byte("a\nb\nc\n"),
	}
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []SectionKind{SectionMeta, SectionAMStates, SectionAMArcs, SectionLexicon} {
		p := payloads[k]
		if err := w.AddSection(k, func(out io.Writer) error {
			// Write in two chunks so streamed CRC accumulation is exercised.
			if _, err := out.Write(p[:len(p)/2]); err != nil {
				return err
			}
			_, err := out.Write(p[len(p)/2:])
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, payloads
}

func openBoth(t *testing.T, path string, opts Options) []*Bundle {
	t.Helper()
	mapped, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	noMap := opts
	noMap.DisableMmap = true
	heap, err := Open(path, noMap)
	if err != nil {
		t.Fatal(err)
	}
	if heap.Mapped() {
		t.Fatal("DisableMmap bundle reports Mapped")
	}
	return []*Bundle{mapped, heap}
}

func TestRoundTrip(t *testing.T) {
	path, payloads := writeTestBundle(t)
	for _, b := range openBoth(t, path, Options{VerifySections: true}) {
		for k, want := range payloads {
			got, ok := b.Section(k)
			if !ok {
				t.Fatalf("section %s missing", k)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("section %s: got %q want %q", k, got, want)
			}
		}
		if _, ok := b.Section(SectionARPA); ok {
			t.Fatal("absent section reported present")
		}
		if _, err := b.MustSection(SectionARPA); err == nil {
			t.Fatal("MustSection on absent section did not error")
		}
		if err := b.VerifySections(); err != nil {
			t.Fatal(err)
		}
		if b.SizeBytes() <= 0 {
			t.Fatal("non-positive SizeBytes")
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSectionAlignment(t *testing.T) {
	path, _ := writeTestBundle(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenBytes(raw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	count := binary.LittleEndian.Uint32(raw[12:16])
	tableOff := binary.LittleEndian.Uint64(raw[24:32])
	for i := uint32(0); i < count; i++ {
		off := binary.LittleEndian.Uint64(raw[tableOff+uint64(i)*EntrySize+8:])
		if off%Align != 0 {
			t.Fatalf("section %d offset %d not %d-aligned", i, off, Align)
		}
	}
	if len(b.Kinds()) != int(count) {
		t.Fatalf("Kinds() returned %d entries, table has %d", len(b.Kinds()), count)
	}
}

func TestDuplicateSectionRejected(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "dup.ufb3"))
	if err != nil {
		t.Fatal(err)
	}
	one := func(out io.Writer) error { _, err := out.Write([]byte{1}); return err }
	if err := w.AddSection(SectionMeta, one); err != nil {
		t.Fatal(err)
	}
	if err := w.AddSection(SectionMeta, one); err == nil {
		t.Fatal("duplicate AddSection accepted")
	}
}

func TestEmptyBundleRejected(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "empty.ufb3"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close with no sections succeeded")
	}
}

func TestWriterAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ufb3")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddSection(SectionMeta, func(io.Writer) error {
		return errors.New("payload producer failed")
	}); err == nil {
		t.Fatal("failing payload accepted")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("failed write left a file at the target path")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("temp file leaked: %v", ents)
	}
}

// TestWriterChunkingByteIdentical pins the buffered section writer: a bundle
// whose payloads arrive one byte per Write must be the same file, bit for
// bit, as one whose payloads arrive in a single Write. The sections straddle
// the 1 MiB buffer (one below it, one several times over with an odd tail),
// so a byte dropped or reordered at a flush boundary, a length recorded
// before the flush, or a CRC taken over the wrong span changes the digest.
func TestWriterChunkingByteIdentical(t *testing.T) {
	big := make([]byte, 2<<20+4097)
	for i := range big {
		big[i] = byte(i*31 + i>>8)
	}
	payloads := []struct {
		kind SectionKind
		p    []byte
	}{
		{SectionMeta, []byte(`{"format_version":3}`)},
		{SectionAMStates, big},
		{SectionAMArcs, big[:1<<20-3]},
		{SectionLexicon, []byte("a\nb\n")},
	}
	digest := func(chunk int) [sha256.Size]byte {
		path := filepath.Join(t.TempDir(), "model.ufb3")
		w, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range payloads {
			if err := w.AddSection(s.kind, func(out io.Writer) error {
				for p := s.p; len(p) > 0; {
					n := min(chunk, len(p))
					if _, err := out.Write(p[:n]); err != nil {
						return err
					}
					p = p[n:]
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := OpenBytes(raw, Options{VerifySections: true})
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		for _, s := range payloads {
			if got, _ := b.Section(s.kind); !bytes.Equal(got, s.p) {
				t.Fatalf("chunk %d: section %s does not read back", chunk, s.kind)
			}
		}
		return sha256.Sum256(raw)
	}
	whole := digest(len(big))
	if got := digest(1); got != whole {
		t.Errorf("1-byte writes: sha256 %x, single write %x", got, whole)
	}
}

// corrupt applies f to a copy of the bundle bytes and asserts OpenBytes
// fails with a *Error carrying the wanted reason.
func corrupt(t *testing.T, raw []byte, wantReason string, f func([]byte)) {
	t.Helper()
	bad := append([]byte(nil), raw...)
	f(bad)
	_, err := OpenBytes(bad, Options{VerifySections: true})
	var fe *Error
	if !errors.As(err, &fe) {
		t.Fatalf("want *Error, got %v", err)
	}
	if fe.Reason != wantReason {
		t.Fatalf("reason %q, want %q (err: %v)", fe.Reason, wantReason, fe)
	}
}

func TestOpenBytesRejectsCorruption(t *testing.T) {
	path, _ := writeTestBundle(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt(t, raw, "magic", func(b []byte) { b[0] ^= 0xFF })
	corrupt(t, raw, "version", func(b []byte) { b[4] = 99 })
	corrupt(t, raw, "header", func(b []byte) {
		binary.LittleEndian.PutUint32(b[12:16], 0) // zero section count
	})
	corrupt(t, raw, "header", func(b []byte) {
		binary.LittleEndian.PutUint64(b[16:24], uint64(len(b))+1) // wrong fileSize
	})
	corrupt(t, raw, "header", func(b []byte) {
		binary.LittleEndian.PutUint64(b[24:32], uint64(len(b))) // table out of bounds
	})
	corrupt(t, raw, "checksum", func(b []byte) { b[HeaderSize] ^= 0x01 }) // table bit-flip
	corrupt(t, raw, "checksum", func(b []byte) { b[len(b)-1] ^= 0x80 })   // payload bit-flip

	// Bounds violation with a recomputed header CRC, so it gets past the
	// checksum and must be caught by the explicit range check.
	bad := append([]byte(nil), raw...)
	tableOff := binary.LittleEndian.Uint64(bad[24:32])
	binary.LittleEndian.PutUint64(bad[tableOff+16:], uint64(len(bad))) // first section length = file size
	count := binary.LittleEndian.Uint32(bad[12:16])
	h := crc32.New(crcTable)
	h.Write(bad[:HeaderSize-4])
	h.Write(bad[tableOff : tableOff+uint64(count)*EntrySize])
	binary.LittleEndian.PutUint32(bad[HeaderSize-4:], h.Sum32())
	_, err = OpenBytes(bad, Options{})
	var fe *Error
	if !errors.As(err, &fe) || fe.Reason != "bounds" {
		t.Fatalf("want bounds error, got %v", err)
	}

	// Truncations at every interesting boundary must fail typed, not panic.
	for _, n := range []int{0, 3, HeaderSize - 1, HeaderSize, HeaderSize + EntrySize - 1, len(raw) - 1} {
		_, err := OpenBytes(raw[:n], Options{VerifySections: true})
		if err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
		if !errors.As(err, &fe) {
			t.Fatalf("truncation to %d: want *Error, got %v", n, err)
		}
	}
}

// TestOpenBytesNeverPanics sweeps every single-byte truncation of a small
// bundle plus every single-bit flip of its header region.
func TestOpenBytesNeverPanics(t *testing.T) {
	path, _ := writeTestBundle(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= len(raw); n += 7 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on truncation to %d: %v", n, r)
				}
			}()
			b, err := OpenBytes(raw[:n:n], Options{VerifySections: true})
			if err == nil {
				b.Close()
			}
		}()
	}
	for bit := 0; bit < headerReserve*8 && bit < len(raw)*8; bit++ {
		bad := append([]byte(nil), raw...)
		bad[bit/8] ^= 1 << (bit % 8)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on bit flip %d: %v", bit, r)
				}
			}()
			b, err := OpenBytes(bad, Options{VerifySections: true})
			if err == nil {
				b.Close()
			}
		}()
	}
}

func TestErrorStringsAndUnwrap(t *testing.T) {
	cause := errors.New("boom")
	e := &Error{Section: SectionAMArcs, Reason: "checksum", Cause: cause}
	if !errors.Is(e, cause) {
		t.Fatal("Unwrap lost the cause")
	}
	if s := e.Error(); s == "" {
		t.Fatal("empty error string")
	}
	if got := SectionKind(99).String(); got != "kind-99" {
		t.Fatalf("unknown kind string %q", got)
	}
}

func TestCloseInvalidatesAndIsIdempotent(t *testing.T) {
	path, _ := writeTestBundle(t)
	b, err := Open(path, Options{DisableMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal("second Close errored")
	}
}
