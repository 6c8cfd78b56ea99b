// Command bench is the repository's one measurement harness: three
// workloads (search_wide, score_dense, serve_mixed), eight end-to-end
// metrics with regression bounds, and a traced pass that splits each
// workload by layer. See README.md next to this file.
//
//	go run ./bench                                  all workloads, both passes
//	go run ./bench -workload W -seed N -seconds S -trace 0|1   one pass, one JSON line
//	go run ./bench -smoke                           the same on the 40-word fixture
//	go run ./bench -compare a.json b.json           verdict per metric x workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// runRecord is one run in a result file, with the environment it ran in.
type runRecord struct {
	Workload   string                 `json:"workload"`
	Trace      int                    `json:"trace"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Nproc      int                    `json:"nproc"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	GoVersion  string                 `json:"go_version"`
	Commit     string                 `json:"commit"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	Samples    map[string]int         `json:"samples,omitempty"`
	Failures   []string               `json:"failures,omitempty"` // why correct is false
	Warnings   []string               `json:"warnings,omitempty"`
}

type resultFile struct {
	Runs []runRecord `json:"runs"`
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// appendResults adds runs to the result file at path, creating it if need
// be, so repeated invocations accumulate the runs -compare takes quartiles
// over.
func appendResults(path string, runs []runRecord) error {
	f, err := readResults(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	f.Runs = append(f.Runs, runs...)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// commitID names the checkout: -commit if given, else git's HEAD, else
// "unknown" (the driver's checkouts are not git repositories).
func commitID(flagValue string) string {
	if flagValue != "" {
		return flagValue
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func record(cfg runConfig, res *runResult, commit string) runRecord {
	trace := 0
	if cfg.trace {
		trace = 1
	}
	return runRecord{
		Workload: cfg.workload, Trace: trace, Seed: cfg.seed, Seconds: cfg.seconds,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit,
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: res.Metrics, Samples: res.samples, Failures: res.failures, Warnings: res.warnings,
	}
}

// printTable writes every metric of a run by name with its unit, and the
// sample count beside each percentile.
func printTable(w io.Writer, cfg runConfig, res *runResult, defs []metricDef) {
	pass := "untraced"
	if cfg.trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %.0f s): correct=%v attempted=%d failed=%d\n",
		cfg.workload, pass, cfg.seed, cfg.seconds, res.Correct, res.Attempted, res.Failed)
	for _, d := range defs {
		m := res.Metrics[d.Name]
		line := fmt.Sprintf("  %-34s %16.6g %s", d.Name, m.Value, m.Unit)
		if n, ok := res.samples[d.Name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	for _, f := range res.failures {
		fmt.Fprintln(w, "  FAIL:", f)
	}
	for _, f := range res.warnings {
		fmt.Fprintln(w, "  WARN:", f)
	}
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayerDefs
	}
	return endToEndDefs
}

// runAll is the one command: every workload untraced, then traced, each on
// a freshly set-up fixture exactly as the single-run mode does it.
func runAll(base runConfig, out, commit string) bool {
	ok := true
	for _, trace := range []bool{false, true} {
		for _, w := range workloadDefs {
			cfg := base
			cfg.workload, cfg.trace = w.Name, trace
			res, err := runWorkload(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
				ok = false
				continue
			}
			printTable(os.Stdout, cfg, res, defsFor(trace))
			ok = ok && res.Correct
			if err := appendResults(out, []runRecord{record(cfg, res, commit)}); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				ok = false
			}
		}
	}
	return ok
}

// smokeSeconds is the timed segment of each of -smoke's six passes.
const smokeSeconds = 0.2

// runSmoke runs every workload, both passes, on the 40-word fixture and
// checks what only a tiny fixture allows: every named metric is present,
// finite and carries a unit, and on-the-fly decoding equals fully-composed
// decoding (the paper's equivalence claim).
func runSmoke(outDir string, seed int64) error {
	var problems []string
	layerSet := map[string]bool{}
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w.Name, seed: seed, seconds: smokeSeconds, trace: trace, smoke: true, outDir: outDir}
			res, err := runWorkload(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			for _, f := range res.failures {
				problems = append(problems, w.Name+": "+f)
			}
			if !res.Correct {
				problems = append(problems, fmt.Sprintf("%s (trace=%v): not correct, %d of %d failed", w.Name, trace, res.Failed, res.Attempted))
			}
			for _, d := range defsFor(trace) {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					problems = append(problems, fmt.Sprintf("%s: %s missing", w.Name, d.Name))
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					problems = append(problems, fmt.Sprintf("%s: %s is %v", w.Name, d.Name, m.Value))
				case m.Unit == "":
					problems = append(problems, fmt.Sprintf("%s: %s has no unit", w.Name, d.Name))
				case !trace && m.Value <= 0:
					problems = append(problems, fmt.Sprintf("%s: %s is %v, want > 0", w.Name, d.Name, m.Value))
				}
			}
			for name := range res.set {
				layerSet[name] = true
			}
		}
	}
	for _, d := range perLayerDefs {
		if !layerSet[d.Name] {
			problems = append(problems, fmt.Sprintf("no workload measures %s", d.Name))
		}
	}
	if err := smokeEquivalence(); err != nil {
		problems = append(problems, err.Error())
	}
	if len(problems) > 0 {
		return fmt.Errorf("smoke failed:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// smokeEquivalence decodes the smoke test set with the on-the-fly decoder
// and on the offline composition, and wants identical transcripts.
func smokeEquivalence() error {
	sys, err := buildSystem(smokeKind(false).spec)
	if err != nil {
		return err
	}
	dec, err := sys.newSearcher(searchServer) // the default search configuration on both sides
	if err != nil {
		return err
	}
	var scores [][][]float32
	var otf [][]int32
	for _, u := range sys.testSet() {
		sc := sys.score(u.frames)
		words, _ := dec.decode(sc)
		scores, otf = append(scores, sc), append(otf, words)
	}
	composed, err := sys.composedWords(scores)
	if err != nil {
		return err
	}
	for i := range otf {
		if !sameWords(otf[i], composed[i]) {
			return fmt.Errorf("equivalence: utterance %d decodes to %v on the fly, %v fully composed", i, otf[i], composed[i])
		}
	}
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print one JSON result line; empty runs all of them, both passes")
		seed     = flag.Int64("seed", 1, "traffic seed: utterance order, request schedule, routes, tenants")
		seconds  = flag.Float64("seconds", 25, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: traced pass, per-layer metrics; 0: untraced pass, end-to-end metrics")
		smoke    = flag.Bool("smoke", false, "run everything on the 40-word fixture and check every metric is reported")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		out      = flag.String("out", "", "append this run to a result file (default bench/out/result.json when running all workloads)")
		outDir   = flag.String("dir", filepath.Join("bench", "out"), "scratch directory for bundles and traces")
		commit   = flag.String("commit", "", "commit id to record (default: git rev-parse HEAD)")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
	case *smoke && *workload == "":
		if err := runSmoke(*outDir, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println("smoke ok")
	case *workload == "":
		if *out == "" {
			*out = filepath.Join(*outDir, "result.json")
		}
		base := runConfig{seed: *seed, seconds: *seconds, outDir: *outDir}
		if !runAll(base, *out, commitID(*commit)) {
			os.Exit(1)
		}
	default:
		cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, outDir: *outDir}
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		printTable(os.Stderr, cfg, res, defsFor(cfg.trace))
		if *out != "" {
			if err := appendResults(*out, []runRecord{record(cfg, res, commitID(*commit))}); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
