package server

import (
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var floatExhaustive = flag.Bool("float-exhaustive", false, "run TestScanNumberExhaustive over every finite float32 (minutes)")

// jsonNumber reports whether b is -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
// (RFC 8259). strconv.ParseFloat also takes "+1", ".5", "1.", "0x1p3", "inf".
func jsonNumber(b []byte) bool {
	if len(b) > 0 && b[0] == '-' {
		b = b[1:]
	}
	n := digits(b)
	if n == 0 || b[0] == '0' && n > 1 {
		return false
	}
	if b = b[n:]; len(b) > 0 && b[0] == '.' {
		if n = digits(b[1:]); n == 0 {
			return false
		}
		b = b[1+n:]
	}
	if len(b) > 0 && (b[0] == 'e' || b[0] == 'E') {
		if b = b[1:]; len(b) > 0 && (b[0] == '+' || b[0] == '-') {
			b = b[1:]
		}
		if n = digits(b); n == 0 {
			return false
		}
		b = b[n:]
	}
	return len(b) == 0
}

func digits(b []byte) int {
	n := 0
	for n < len(b) && '0' <= b[n] && b[n] <= '9' {
		n++
	}
	return n
}

// appendJSONFloat32 writes f as json.Marshal writes a float32.
func appendJSONFloat32(b []byte, f float32) []byte {
	abs, format := float32(math.Abs(float64(f))), byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, float64(f), format, -1, 32)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 -> e-9
		b = b[:n-1]
	}
	return b
}

// checkScan holds scanNumber to its definition on the token at the start of
// s: the maximal run of [0-9+-.eE] converts iff jsonNumber accepts it and
// strconv.ParseFloat(tok, 32) does not fail, to the same bits. The scan sees
// s once with a closing bracket after it, and its token alone, which must
// read as cut short when the token is a number.
func checkScan(t *testing.T, s string) bool {
	t.Helper()
	n := 0
	for n < len(s) && numberByte(s[n]) {
		n++
	}
	tok := s[:n]
	want, err := strconv.ParseFloat(tok, 32)
	ok := jsonNumber([]byte(tok)) && err == nil
	f, got, st := scanNumber([]byte(s + "]"))
	switch {
	case ok && (st != numOK || got != n || math.Float32bits(f) != math.Float32bits(float32(want))):
		t.Errorf("scanNumber(%q) = %v (%#x), %d bytes, status %d; want %v (%#x), %d bytes",
			s, f, math.Float32bits(f), got, st, float32(want), math.Float32bits(float32(want)), n)
	case !ok && st != numBad:
		t.Errorf("scanNumber(%q): status %d, want not a number (jsonNumber %v, ParseFloat error %v)", s, st, jsonNumber([]byte(tok)), err)
	default:
		if _, _, st := scanNumber([]byte(tok)); ok && st != numMore {
			t.Errorf("scanNumber(%q) without a terminator: status %d, want cut short", tok, st)
		} else if !ok && st == numOK {
			t.Errorf("scanNumber(%q) without a terminator: converted, want no number", tok)
		}
		return true
	}
	return false
}

// scanEdges are the fast path's guards, each from both sides.
var scanEdges = []string{
	// Significant digits: 15 takes the fast path, 16 and more do not; m keeps
	// 19 digits and drops the rest.
	"123456789012345", "1234567890123456", "9007199254740993", "1234567890123456789", "12345678901234567890",
	"0.123456789012345", "0.1234567890123456", "99999999999999999999e-5", "1.00000000000000000000001",
	"999999999999999e22", "999999999999999e-22", "1e-22", "1e22", "1e23", "1e-23", "123456789012345e23",
	"123456789012345e-23", "0.000000000000000000000001", "1000000000000000000000", "10000000000000000000000",
	// Leading zeros are not significant digits, trailing ones are.
	"0.000000000000001234567890123456", "0.00000000000000000000012345", "100000000000000", "1000000000000000",
	"0e999", "-0e-999", "0.0e5", "-0", "-0e5", "-0.0", "0", "-0.000",
	// Exponent forms.
	"1e+5", "1E5", "1e-0", "1e00022", "1e-00022", "1e+023", "5e-324", "1e99999999999",
	// The float32 range: MaxFloat32 and what rounds to it or overflows, the
	// smallest normal and its neighbours, subnormals, underflow.
	"3.4028235e38", "3.4028236e38", "-3.4028235e+38", "3.40282346638528859811704183484516925440e38", "3.4028234e38",
	"1.17549435e-38", "1.1754942e-38", "1.1754944e-38", "1.17549435082228750797e-38", "1e-45", "1.4e-45", "7e-46", "1e-46",
	// Float32 midpoints: 2^24+1 exactly (ties to even), written to 9 digits,
	// and decimals within half a float64 ulp of a midpoint, which the
	// float64 rounds onto it.
	"16777217", "16777217.0", "1.6777217e7", "1.00000006e0", "1.0000000596046447753906250",
	"1.00000005960464477539", "7.22568988590063e+28", "-2.66960059889243e-05",
	// Mantissas past 2^53 (the float64 rounds them) and 10^±23 (not a float64).
	"1.2649810212191367e+33", "-7.7563989907503128e-02", "1.47155162883217e+37", "2.80186995826881e-09",
	// Not JSON numbers, or not only one.
	"", "-", "+1", ".5", "1.", "1.e5", "01", "-01", "00", "1-2", "1.5.5", "1e5e5", "1e", "1e+", "1E+-2", "--1",
	"0x1p3", "inf", "-inf", "NaN", "1ee5", "1e5.5", "1+", "0-", "-.5", "1,", "1]", "1 ", "x",
}

func TestScanNumberEdges(t *testing.T) {
	for _, s := range scanEdges {
		checkScan(t, s)
		if s != "" && s[0] != '-' {
			checkScan(t, "-"+s)
		}
	}
}

// TestScanNumberDifferential runs ~1M numbers through checkScan: float32s
// from every binade as json.Marshal and 'e' write them and to 9 digits;
// float32 midpoints written to 9, 15, 16 and 17 digits, shortest as a
// float64 and exactly; and random decimals around the fast path's digit and
// exponent limits, with leading zeros, signs and both exponent letters.
func TestScanNumberDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n := 1 << 20
	if raceDetector {
		n >>= 4
	}
	finite := func() float32 {
		for {
			if f := math.Float32frombits(rng.Uint32()); !math.IsInf(float64(f), 0) && !math.IsNaN(float64(f)) {
				return f
			}
		}
	}
	fail := 0
	check := func(s string) {
		if !checkScan(t, s) {
			if fail++; fail == 20 {
				t.Fatal("too many mismatches")
			}
		}
	}
	var buf []byte
	for i := 0; i < n/8; i++ {
		f := finite()
		buf = appendJSONFloat32(buf[:0], f)
		if i%64 == 0 {
			if want, _ := json.Marshal(f); string(buf) != string(want) {
				t.Fatalf("appendJSONFloat32(%v) = %s, json.Marshal %s", f, buf, want)
			}
		}
		check(string(buf))
		check(strconv.FormatFloat(float64(f), 'e', -1, 32))
		check(strconv.FormatFloat(float64(f), 'e', 8, 64))
	}
	for i := 0; i < n/12; i++ {
		f := finite()
		if math.Abs(float64(f)) == math.MaxFloat32 {
			continue
		}
		mid := (float64(f) + float64(math.Nextafter32(f, float32(math.Copysign(math.Inf(1), float64(f)))))) / 2
		for _, prec := range []int{8, 14, 15, 16, -1} {
			check(strconv.FormatFloat(mid, 'e', prec, 64))
		}
		if i%8 == 0 { // 200 digits hold every float32 midpoint exactly
			mant, exp, _ := strings.Cut(strconv.FormatFloat(mid, 'e', 200, 64), "e")
			check(strings.TrimSuffix(strings.TrimRight(mant, "0"), ".") + "e" + exp)
		}
	}
	for i := 0; i < n/3; i++ {
		var sb strings.Builder
		if rng.Intn(2) == 0 {
			sb.WriteByte('-')
		}
		nd := 1 + rng.Intn(21)
		ds := make([]byte, nd)
		for j := range ds {
			ds[j] = byte('0' + rng.Intn(10))
		}
		ds[0] = byte('1' + rng.Intn(9))
		switch dot := rng.Intn(nd + 2); {
		case dot == 0: // 0.000ddd
			sb.WriteString("0.")
			sb.WriteString(strings.Repeat("0", rng.Intn(24)))
			sb.Write(ds)
		case dot >= nd:
			sb.Write(ds)
		default:
			sb.Write(ds[:dot])
			sb.WriteByte('.')
			sb.Write(ds[dot:])
		}
		if rng.Intn(4) != 0 {
			sb.WriteString([]string{"e", "E", "e+", "e-", "E-"}[rng.Intn(5)])
			sb.WriteString(strconv.Itoa(rng.Intn(60)))
		}
		check(sb.String())
	}
}

// TestScanNumberExhaustive runs every finite float32 through scanNumber as
// json.Marshal writes it and as 'e' shortest writes it; each must come back
// bit for bit. It takes minutes, so it runs only with -float-exhaustive:
// make float-exhaustive, and the nightly job of that name.
func TestScanNumberExhaustive(t *testing.T) {
	if testing.Short() || raceDetector || !*floatExhaustive {
		t.Skip("every float32, twice: run with -float-exhaustive, not under -short or -race")
	}
	start, workers := time.Now(), runtime.GOMAXPROCS(0)
	var mu sync.Mutex
	var checked, mismatches uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var n, bad uint64
			var buf []byte
			lo, hi := uint64(w)<<32/uint64(workers), uint64(w+1)<<32/uint64(workers)
			for bits := lo; bits < hi; bits++ {
				f := math.Float32frombits(uint32(bits))
				if math.IsInf(float64(f), 0) || math.IsNaN(float64(f)) {
					continue
				}
				n++
				check := func() {
					if g, k, st := scanNumber(append(buf, ',')); st != numOK || k != len(buf) || math.Float32bits(g) != uint32(bits) {
						if bad++; bad <= 5 {
							t.Errorf("scanNumber(%q) = %#x, %d bytes, status %d; want %#x", buf, math.Float32bits(g), k, st, bits)
						}
					}
				}
				buf = appendJSONFloat32(buf[:0], f)
				check()
				buf = strconv.AppendFloat(buf[:0], float64(f), 'e', -1, 32)
				check()
			}
			mu.Lock()
			checked, mismatches = checked+n, mismatches+bad
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	t.Logf("%d finite float32s, each written two ways: %d mismatches, %d workers, %v",
		checked, mismatches, workers, time.Since(start).Round(time.Second))
	if checked != 1<<32-1<<24 {
		t.Errorf("checked %d float32s, want %d", checked, uint64(1<<32-1<<24))
	}
}
