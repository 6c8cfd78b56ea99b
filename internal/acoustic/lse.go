package acoustic

import "math"

// The GMM's log-sum-exp, made cheap without moving a bit.
//
// logSumExp2(a, b) is max + softplus(d) with d = min − max ≤ 0, and the
// reference rounds the softplus term to float32 before adding it:
// float32(Log1p(Exp(float64(d)))). That term is a function of one float32,
// and a float32 result leaves 29 bits of slack under a float64 evaluation —
// so a cheaper float64 approximation y, good to a relative 2⁻⁴⁴, gives the
// reference's float32 whenever y−e and y+e (e = y·2⁻⁴⁴) round to the same
// float32: rounding is monotone and the reference's float64 lies between
// them. When they round apart (y sits within e of a float32 rounding
// boundary, about 3 in 10⁷ arguments) the reference expression itself is
// evaluated. The fast path can therefore never return a value the reference
// would not; TestLogSumExpExhaustive checks that claim on every float32 in
// the table's range instead of trusting the error analysis.
//
// The approximation is a degree-6 Taylor polynomial of softplus about the
// centre of d's 1/32-wide interval, |t| ≤ 1/64. Every derivative of softplus
// is s·(1−s)·poly(s) with s the logistic function, so in the tail all the
// coefficients shrink like eᵈ together and the truncation error (~2⁻⁵⁴·eᵈ)
// stays relative to the value, which is what the 2⁻⁴⁴ test needs.
//
// With AVX2 the GMM evaluates this same table four lanes at a time (LSE4 in
// tile_amd64.s), operation for operation, so softplusTable and the tile
// decide the same arguments with the same values; TestLogSumExpExhaustiveTile
// checks that on every float32 in range too.

const (
	lseRange     = 16 // the table covers −16 < d ≤ 0
	lsePerUnit   = 32 // intervals per unit of d
	lseIntervals = lseRange * lsePerUnit
	lseDegree    = 6
	lseSlack     = 0x1p-44
)

// lseCoef[i] holds the Taylor coefficients f⁽ᵏ⁾(c)/k! of softplus about
// c = −(i+½)/32: 512 × 7 float64, 28 KB, filled once at package init.
var lseCoef = func() (tab [lseIntervals][lseDegree + 1]float64) {
	for i := range tab {
		c := -(float64(i) + 0.5) / lsePerUnit
		e := math.Exp(c)
		s := e / (1 + e)
		sq := s / (1 + e) // s·(1−s)
		tab[i] = [lseDegree + 1]float64{
			math.Log1p(e),
			s,
			sq / 2,
			sq * (1 - 2*s) / 6,
			sq * (1 + s*(-6+s*6)) / 24,
			sq * (1 + s*(-14+s*(36-s*24))) / 120,
			sq * (1 + s*(-30+s*(150+s*(-240+s*120)))) / 720,
		}
	}
	return tab
}()

// softplusTable returns float32(Log1p(Exp(float64(d)))) from the table, or
// false when d is outside (−16, 0] (NaN included) or the rounding test
// cannot decide.
func softplusTable(d float32) (float32, bool) {
	if !(d > -lseRange && d <= 0) {
		return 0, false
	}
	x := float64(d)
	i := int(x * -lsePerUnit)
	c := &lseCoef[i]
	t := x + (float64(i)+0.5)/lsePerUnit
	t2 := t * t
	y := (c[0] + t*c[1]) + t2*((c[2]+t*c[3])+t2*((c[4]+t*c[5])+t2*c[6]))
	e := y * lseSlack
	lo := float32(y - e)
	return lo, lo == float32(y+e)
}

// logSumExp2 returns log(exp(a)+exp(b)) stably, bit for bit what
// logSumExp2Ref returns.
func logSumExp2(a, b float32) float32 {
	if a < b {
		a, b = b, a
	}
	if sp, ok := softplusTable(b - a); ok {
		return a + sp
	}
	return logSumExp2Ref(a, b)
}

// logSumExp2Ref is the defining expression: the slow path of logSumExp2 and
// the scalar test oracle's log-sum-exp. noinline so both run the same
// machine code — when a and the softplus term are different NaNs, which one
// the add returns depends on the operand order the compiler picks per site.
//
//go:noinline
func logSumExp2Ref(a, b float32) float32 {
	if a < b {
		a, b = b, a
	}
	return a + float32(math.Log1p(math.Exp(float64(b-a))))
}
