package acoustic

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// softplusRef is the term logSumExp2Ref adds to the larger operand.
func softplusRef(d float32) float32 {
	return float32(math.Log1p(math.Exp(float64(d))))
}

// bits16 is −16's bit pattern; the negative floats in [−16, −0] are exactly
// the patterns negZeroBits..bits16.
const (
	negZeroBits = 0x80000000
	bits16      = 0xc1800000
)

// sweepSoftplus compares the table with the reference on the bit patterns
// lo, lo+stride, ... ≤ hi, split over the CPUs, and returns how many fell
// back and how many disagreed (the first disagreement is reported).
func sweepSoftplus(t *testing.T, lo, hi, stride uint32) (fallbacks, mismatches int64) {
	t.Helper()
	workers := uint32(runtime.GOMAXPROCS(0))
	steps := (hi-lo)/stride + 1
	per := (steps + workers - 1) / workers
	var fb, bad atomic.Int64
	var wg sync.WaitGroup
	for w := uint32(0); w < workers; w++ {
		first, last := w*per, min((w+1)*per, steps)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var nfb, nbad int64
			for k := first; k < last; k++ {
				d := math.Float32frombits(lo + k*stride)
				got, ok := softplusTable(d)
				if !ok {
					nfb++
					continue
				}
				if want := softplusRef(d); math.Float32bits(got) != math.Float32bits(want) {
					if nbad == 0 {
						t.Errorf("d = %g (%#08x): table %#08x, reference %#08x",
							d, math.Float32bits(d), math.Float32bits(got), math.Float32bits(want))
					}
					nbad++
				}
			}
			fb.Add(nfb)
			bad.Add(nbad)
		}()
	}
	wg.Wait()
	return fb.Load(), bad.Load()
}

// TestLogSumExpExhaustive is the proof behind lse.go: every float32 in
// [−16, −0], 1 098 907 649 bit patterns, through the table and through the
// reference expression. Whatever the table answers must be the reference's
// float32 bit for bit, and it must answer nearly always: the fallback is
// always right, so a slack set too wide or a broken range test would cost
// only speed and no equality test would notice.
func TestLogSumExpExhaustive(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("a billion evaluations: skipped under -short and -race")
	}
	fallbacks, mismatches := sweepSoftplus(t, negZeroBits, bits16, 1)
	total := int64(bits16 - negZeroBits + 1)
	t.Logf("%d arguments, %d fallbacks (1 in %d), %d mismatches",
		total, fallbacks, total/max(fallbacks, 1), mismatches)
	if mismatches != 0 {
		t.Errorf("%d of %d arguments disagree with the reference", mismatches, total)
	}
	// −16 itself is outside the table and always falls back.
	if fallbacks-1 > total/100000 {
		t.Errorf("%d fallbacks in %d arguments, want fewer than 1 in 10^5", fallbacks, total)
	}
}

// TestLogSumExpEdges is the always-on half: a strided walk of every negative
// bit pattern (NaNs and −Inf included; 30 million arguments inside the table,
// enough that a coefficient off by more than the slack mismatches somewhere),
// then the arguments where the fast path's control flow changes — zeros,
// subnormals, the ends of the table's range, both sides of every interval
// edge — and logSumExp2 itself on operands the subtraction turns into
// something else.
func TestLogSumExpEdges(t *testing.T) {
	fallbacks, _ := sweepSoftplus(t, negZeroBits, bits16, 37)
	if steps := int64((bits16-negZeroBits)/37 + 1); fallbacks > steps/100000 {
		t.Errorf("%d fallbacks in %d strided arguments inside the table, want fewer than 1 in 10^5", fallbacks, steps)
	}
	sweepSoftplus(t, bits16+1, math.MaxUint32, 37) // below −16, −Inf, negative NaNs: all fallbacks

	check := func(d float32) {
		t.Helper()
		if got, ok := softplusTable(d); ok && math.Float32bits(got) != math.Float32bits(softplusRef(d)) {
			t.Errorf("d = %g (%#08x): table %#08x, reference %#08x",
				d, math.Float32bits(d), math.Float32bits(got), math.Float32bits(softplusRef(d)))
		}
	}
	mustFallBack := func(d float32) {
		t.Helper()
		if _, ok := softplusTable(d); ok {
			t.Errorf("d = %g (%#08x) is outside the table but did not fall back", d, math.Float32bits(d))
		}
	}
	negZero := math.Float32frombits(negZeroBits)
	check(0)
	check(negZero)
	check(-math.SmallestNonzeroFloat32)
	check(math.Float32frombits(negZeroBits | 0x007fffff)) // largest subnormal
	check(math.Nextafter32(-lseRange, 0))
	mustFallBack(-lseRange)
	mustFallBack(math.Nextafter32(-lseRange, -32))
	mustFallBack(math.SmallestNonzeroFloat32) // d > 0 never reaches the table from logSumExp2
	for i := 1; i < lseIntervals; i++ {
		edge := -float32(i) / lsePerUnit
		check(math.Nextafter32(edge, 0))
		check(edge)
		check(math.Nextafter32(edge, -32))
	}

	inf := float32(math.Inf(1))
	nanP := math.Float32frombits(0x7fc00abc)
	nanN := math.Float32frombits(0xffc00123)
	operands := []float32{0, negZero, 1, -1, 1.5, -7.25, 15.9, -16, 16, 17, -40, 1e-40, -1e-40,
		math.MaxFloat32, -math.MaxFloat32, inf, -inf, nanP, nanN}
	for _, a := range operands {
		for _, b := range operands {
			got, want := logSumExp2(a, b), logSumExp2Ref(a, b)
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Errorf("logSumExp2(%g, %g) = %#08x (%g), reference %#08x (%g)",
					a, b, math.Float32bits(got), got, math.Float32bits(want), want)
			}
		}
	}
}

var lseSink float32

func BenchmarkLogSumExp2(b *testing.B) {
	ds := make([]float32, 1024)
	for i := range ds {
		ds[i] = -float32(i%300) / 19
	}
	for _, c := range []struct {
		name string
		f    func(a, b float32) float32
	}{{"table", logSumExp2}, {"reference", logSumExp2Ref}} {
		b.Run(c.name, func(b *testing.B) {
			var s float32
			for i := 0; i < b.N; i++ {
				s += c.f(-40, -40+ds[i%len(ds)])
			}
			lseSink = s
		})
	}
}
