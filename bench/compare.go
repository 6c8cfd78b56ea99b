package main

import (
	"fmt"
	"io"
)

// Verdicts of -compare, per end-to-end metric x workload.
const (
	verdictBetter     = "better"     // b's median beats a's by more than a's own spread
	verdictWithin     = "within"     // no worse than the bound allows
	verdictWorse      = "worse"      // worse than a's median by more than the bound
	verdictUnresolved = "unresolved" // a's run-to-run spread is wider than the bound
)

// judge compares b's runs of one metric with a's (the parent's). worseBy is
// the relative change in the metric's bad direction; spread is the distance
// between a's quartiles as a share of its median.
func judge(d metricDef, a, b []float64) (verdict string, medA, medB, worseBy, spread float64) {
	medA, medB = median(a), median(b)
	spread = quartileSpread(a)
	if medA != 0 {
		worseBy = (medB - medA) / medA
		if d.Better == "higher" {
			worseBy = -worseBy
		}
	}
	switch {
	case spread > d.Bound:
		verdict = verdictUnresolved
	case worseBy > d.Bound:
		verdict = verdictWorse
	case worseBy < 0 && -worseBy > spread:
		verdict = verdictBetter
	default:
		verdict = verdictWithin
	}
	return verdict, medA, medB, worseBy, spread
}

// untraced collects the untraced runs' values per workload and metric. A
// run that failed its gate or was flagged invalid (correct is false either
// way) has no numbers worth comparing: it is an error, not a sample.
func untraced(path string, f resultFile) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for i, r := range f.Runs {
		if r.Trace != 0 {
			continue
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: run %d (%s, seed %d) is not correct: %v; rerun it or take it out", path, i, r.Workload, r.Seed, r.Failures)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, nil
}

// environments lists the distinct environments a result file's runs were
// made in.
func environments(f resultFile) []string {
	seen := map[string]bool{}
	for _, r := range f.Runs {
		seen[fmt.Sprintf("commit %s, %s, nproc %d, GOMAXPROCS %d", r.Commit, r.GoVersion, r.Nproc, r.GOMAXPROCS)] = true
	}
	return sortedKeys(seen)
}

// compareFiles prints one row per end-to-end metric x workload, applying
// the bounds of BENCHMARK.json (mirrored in endToEndDefs), and reports
// whether any row is worse or unresolved.
func compareFiles(w io.Writer, pathA, pathB string) (bad bool, err error) {
	fa, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	for _, env := range environments(fa) {
		fmt.Fprintf(w, "a: %s\n", env)
	}
	for _, env := range environments(fb) {
		fmt.Fprintf(w, "b: %s\n", env)
	}
	a, err := untraced(pathA, fa)
	if err != nil {
		return false, err
	}
	b, err := untraced(pathB, fb)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "a median", "b median", "worse by", "spread", "bound", "verdict")
	for _, wl := range workloadDefs {
		for _, d := range endToEndDefs {
			va, vb := a[wl.Name][d.Name], b[wl.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				missing := pathA
				if len(va) > 0 {
					missing = pathB
				}
				fmt.Fprintf(w, "%-16s %-22s missing from %s\n", wl.Name, d.Name, missing)
				bad = true
				continue
			}
			verdict, medA, medB, worseBy, spread := judge(d, va, vb)
			fmt.Fprintf(w, "%-16s %-22s %14.6g %14.6g %+8.2f%% %7.2f%% %6.1f%%  %s (n=%d/%d)\n",
				wl.Name, d.Name, medA, medB, 100*worseBy, 100*spread, 100*d.Bound, verdict, len(va), len(vb))
			if verdict == verdictWorse || verdict == verdictUnresolved {
				bad = true
			}
		}
	}
	return bad, nil
}
