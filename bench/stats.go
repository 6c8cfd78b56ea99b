package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p < 1) of values by linear
// interpolation between closest ranks, and 0 for an empty sample. It sorts
// a copy.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return percentile(values, 0.5) }

// minBeyond is the sample-count rule: a percentile is reported only with at
// least this many samples beyond it.
const minBeyond = 10

// supported reports whether n samples carry the p-quantile under the
// sample-count rule. p90 needs 100 samples, p99 needs 1 000.
func supported(n int, p float64) bool {
	return int(math.Floor(float64(n)*(1-p)+1e-9)) >= minBeyond
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (exclusive method). Fewer than
// two values have no spread.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k)*float64(n+1)/4 - 1 // zero-based rank
		lo := int(math.Floor(pos))
		lo = max(0, min(lo, n-2))
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

// editDistance is the word-level Levenshtein distance between a reference
// and a hypothesis: substitutions, deletions and insertions cost one each.
func editDistance(ref, hyp []int32) int {
	prev := make([]int, len(hyp)+1)
	cur := make([]int, len(hyp)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ref); i++ {
		cur[0] = i
		for j := 1; j <= len(hyp); j++ {
			sub := prev[j-1]
			if ref[i-1] != hyp[j-1] {
				sub++
			}
			cur[j] = min(sub, prev[j]+1, cur[j-1]+1)
		}
		prev, cur = cur, prev
	}
	return prev[len(hyp)]
}

// werPct is the word error rate in percent over paired references and
// hypotheses: total edit distance over total reference words.
func werPct(refs, hyps [][]int32) float64 {
	var errs, words int
	for i := range refs {
		errs += editDistance(refs[i], hyps[i])
		words += len(refs[i])
	}
	if words == 0 {
		return 0
	}
	return 100 * float64(errs) / float64(words)
}

func sameWords(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
