package bitpack

import "testing"

// FuzzReadBits checks that arbitrary buffers never panic for in-range reads
// and that out-of-range reads always panic (the documented contract).
func FuzzReadBits(f *testing.F) {
	f.Add([]byte{0xFF, 0x00, 0xAB}, uint16(0), uint8(8))
	f.Add([]byte{0x01}, uint16(7), uint8(1))
	f.Add([]byte{}, uint16(0), uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(3), uint8(64))
	f.Fuzz(func(t *testing.T, buf []byte, pos uint16, n uint8) {
		width := uint(n % 65)
		r := NewReader(buf)
		bits := uint64(len(buf)) * 8
		inRange := uint64(pos)+uint64(width) <= bits
		defer func() {
			err := recover()
			if inRange && err != nil {
				t.Fatalf("in-range read panicked: %v", err)
			}
			if !inRange && width > 0 && err == nil {
				t.Fatalf("out-of-range read (pos %d width %d len %d) did not panic",
					pos, width, bits)
			}
		}()
		v := r.ReadBits(uint64(pos), width)
		if width < 64 && v >= 1<<width {
			t.Fatalf("ReadBits returned %d, exceeds %d bits", v, width)
		}
	})
}
