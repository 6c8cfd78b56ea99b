// Package bitpack provides bit-granular writers and readers for the packed
// arc formats of the compressed WFSTs (Section 3.4 of the paper): AM arcs
// occupy 20 or 58 bits and LM arcs occupy 6, 27 or 45 bits, so byte-aligned
// encodings would waste most of the compression win.
//
// The Writer appends fields LSB-first into a growing byte buffer. The Reader
// is stateless: every read names an absolute bit position, which is what the
// binary search over fixed-width LM arcs requires.
package bitpack

import "fmt"

// Writer accumulates bit fields into a byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	bits uint64 // total bits written
}

// WriteBits appends the low n bits of v. n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitpack: WriteBits width %d > 64", n))
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	for n > 0 {
		byteIdx := w.bits >> 3
		bitIdx := uint(w.bits & 7)
		if int(byteIdx) == len(w.buf) {
			w.buf = append(w.buf, 0)
		}
		take := 8 - bitIdx
		if uint64(take) > uint64(n) {
			take = uint(n)
		}
		w.buf[byteIdx] |= byte(v) << bitIdx
		v >>= take
		w.bits += uint64(take)
		n -= take
	}
}

// Align pads with zero bits up to the next multiple of n bits (n a power of
// two is typical, e.g. 8 for byte alignment).
func (w *Writer) Align(n uint64) {
	if n == 0 {
		return
	}
	if rem := w.bits % n; rem != 0 {
		pad := n - rem
		for pad > 64 {
			w.WriteBits(0, 64)
			pad -= 64
		}
		w.WriteBits(0, uint(pad))
	}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() uint64 { return w.bits }

// Bytes returns the packed buffer. The final partial byte, if any, is
// zero-padded. The returned slice aliases the writer's storage.
func (w *Writer) Bytes() []byte { return w.buf }

// SizeBytes returns the storage footprint in bytes (bits rounded up).
func (w *Writer) SizeBytes() int { return int((w.bits + 7) / 8) }

// Reader reads bit fields from a packed buffer at absolute positions.
type Reader struct {
	buf []byte
}

// NewReader wraps buf for random-access bit reads.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// ReadBits returns the n-bit field starting at absolute bit position pos.
// n must be in [0, 64]. Reading past the end of the buffer panics, as it
// indicates a corrupted offset table rather than a recoverable condition.
func (r *Reader) ReadBits(pos uint64, n uint) uint64 {
	if n > 64 {
		panic(fmt.Sprintf("bitpack: ReadBits width %d > 64", n))
	}
	var v uint64
	var got uint
	for got < n {
		byteIdx := pos >> 3
		bitIdx := uint(pos & 7)
		if byteIdx >= uint64(len(r.buf)) {
			panic(fmt.Sprintf("bitpack: read of %d bits at bit %d past end (%d bytes)",
				n, pos-uint64(got), len(r.buf)))
		}
		take := 8 - bitIdx
		if take > n-got {
			take = n - got
		}
		chunk := uint64(r.buf[byteIdx]>>bitIdx) & ((1 << take) - 1)
		v |= chunk << got
		got += take
		pos += uint64(take)
	}
	return v
}
