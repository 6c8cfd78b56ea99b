// Package experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic tasks (see DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured results).
// Each experiment has a stable ID ("fig9", "tab1", "prune", ...) runnable
// via cmd/unfold-experiments or the root-level benchmarks.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"repro/internal/accel"
	"repro/internal/compress"
	"repro/internal/decoder"
	"repro/internal/task"
	"repro/internal/wfst"
)

// Options configures a harness run.
type Options struct {
	// Scale multiplies task sizes (1.0 = defaults).
	Scale float64
	// Utterances overrides the per-task test-set size (0 = task default).
	Utterances int
	// Quick restricts "all"-style experiments to a single task where noted.
	Quick bool
	// MaxComposeStates guards the offline composition (0 = 30M).
	MaxComposeStates int
	Out              io.Writer
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.MaxComposeStates == 0 {
		o.MaxComposeStates = 30_000_000
	}
	return o
}

// bundle is one task with everything the experiments need, built lazily.
type bundle struct {
	tk     *task.Task
	cam    *compress.AM
	clm    *compress.LM
	scores [][][]float32
	refs   [][]int32

	composed     *wfst.WFST // raw composition (exact oracle weights)
	composedOpt  *wfst.WFST // weight-pushed + minimized (the deployed form)
	composedComp *compress.Composed
	opt          Options
}

// bundleCache shares built bundles (and their cached compositions) across
// experiments within one process — `-exp all` composes each task once.
var bundleCache = map[string]*bundle{}

func buildBundle(spec task.Spec, opt Options) (*bundle, error) {
	if opt.Utterances > 0 {
		spec.TestUtterances = opt.Utterances
	}
	cacheKey := fmt.Sprintf("%+v", spec)
	if b, ok := bundleCache[cacheKey]; ok {
		return b, nil
	}
	tk, err := task.Build(spec)
	if err != nil {
		return nil, err
	}
	qa, err := compress.TrainQuantizer(compress.CollectWeights(tk.AM.G), 0)
	if err != nil {
		return nil, err
	}
	cam, err := compress.EncodeAM(tk.AM.G, qa)
	if err != nil {
		return nil, err
	}
	ql, err := compress.TrainQuantizer(compress.CollectWeights(tk.LMGraph.G), 0)
	if err != nil {
		return nil, err
	}
	clm, err := compress.EncodeLM(tk.LMGraph, ql)
	if err != nil {
		return nil, err
	}
	b := &bundle{tk: tk, cam: cam, clm: clm, opt: opt}
	for _, u := range tk.Test {
		b.scores = append(b.scores, tk.Scorer.ScoreUtterance(u.Frames))
		b.refs = append(b.refs, u.Words)
	}
	bundleCache[cacheKey] = b
	return b, nil
}

// compose builds (and caches) the offline composition.
func (b *bundle) compose() (*wfst.WFST, error) {
	if b.composed == nil {
		g, err := wfst.Compose(b.tk.AM.G, b.tk.LMGraph.G,
			wfst.ComposeOptions{MaxStates: b.opt.MaxComposeStates})
		if err != nil {
			return nil, fmt.Errorf("%s: composing: %w", b.tk.Spec.Name, err)
		}
		b.composed = g
	}
	return b.composed, nil
}

// composeOpt builds (and caches) the weight-pushed, minimized composition —
// the form a deployed fully-composed recognizer ships (Kaldi's HCLG is
// determinized, minimized and pushed), and therefore the dataset the
// baseline accelerator is simulated against. Its arcs are sorted by input
// label here, once: the compressed form needs that order, and sorting the
// shared graph later would change every baseline run that follows.
func (b *bundle) composeOpt() (*wfst.WFST, error) {
	if b.composedOpt == nil {
		g, err := b.compose()
		if err != nil {
			return nil, err
		}
		pushed, _ := wfst.PushWeights(g)
		opt := wfst.Minimize(pushed)
		opt.SortByInput()
		b.composedOpt = opt
	}
	return b.composedOpt, nil
}

// composeCompressed builds (and caches) the Price-style compressed form of
// the optimized composed WFST.
func (b *bundle) composeCompressed() (*compress.Composed, error) {
	if b.composedComp == nil {
		g, err := b.composeOpt()
		if err != nil {
			return nil, err
		}
		q, err := compress.TrainQuantizer(compress.CollectWeights(g), 0)
		if err != nil {
			return nil, err
		}
		cc, err := compress.EncodeComposed(g, q)
		if err != nil {
			return nil, err
		}
		b.composedComp = cc
	}
	return b.composedComp, nil
}

// unfoldAccel constructs the UNFOLD simulator with the paper's defaults.
func (b *bundle) unfoldAccel(dcfg decoder.Config) (*accel.Unfold, error) {
	return accel.NewUnfold(accel.UnfoldConfig(), dcfg, b.cam, b.clm, b.tk.AM.NumSenones)
}

// baselineAccel constructs the fully-composed simulator over the optimized
// (pushed + minimized) graph, as a deployed baseline would ship.
func (b *bundle) baselineAccel(dcfg decoder.Config) (*accel.FullyComposed, error) {
	g, err := b.composeOpt()
	if err != nil {
		return nil, err
	}
	return accel.NewFullyComposed(accel.BaselineConfig(), dcfg, g, b.tk.AM.NumSenones)
}

// audioSeconds returns the audio time represented by the test set.
func (b *bundle) audioSeconds() float64 {
	frames := 0
	for _, sc := range b.scores {
		frames += len(sc)
	}
	return float64(frames) * 0.010
}

// defaultSpecs returns the benchmark set honoring Quick mode.
func defaultSpecs(opt Options) []task.Spec {
	specs := task.AllSpecs(opt.Scale)
	if opt.Quick {
		return specs[2:3] // Voxforge: the small task
	}
	return specs
}

// preemptive is the paper's default decoder configuration for UNFOLD.
func preemptive() decoder.Config {
	return decoder.Config{PreemptivePruning: true}
}

// --- Output helpers ----------------------------------------------------------

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }

// softwareDecodeTime measures the wall-clock time of the software
// on-the-fly decoder over the bundle's test set — the basis for the mobile
// GPU platform model (see internal/energy).
func (b *bundle) softwareDecodeTime() (time.Duration, []time.Duration, error) {
	d, err := decoder.NewOnTheFly(b.tk.AM.G, b.tk.LMGraph.G, decoder.Config{})
	if err != nil {
		return 0, nil, err
	}
	var total time.Duration
	per := make([]time.Duration, len(b.scores))
	for i, sc := range b.scores {
		start := time.Now()
		d.Decode(sc)
		per[i] = time.Since(start)
		total += per[i]
	}
	return total, per, nil
}

// scorerTime measures acoustic-scoring wall time over the test set, at
// GOMAXPROCS 1. ScoreUtterance would otherwise hand an utterance's blocks to
// idle cores, and Fig 1 splits one core's Viterbi time (softwareDecodeTime,
// one goroutine) against one core's scoring time. One untimed pass warms
// the scorer's caches and pools; the result is the median of five timed
// passes, so one slow pass on a shared host does not set the column.
func (b *bundle) scorerTime() time.Duration {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pass := func() time.Duration {
		start := time.Now()
		for _, u := range b.tk.Test {
			b.tk.Scorer.ScoreUtterance(u.Frames)
		}
		return time.Since(start)
	}
	pass()
	var times [5]time.Duration
	for i := range times {
		times[i] = pass()
	}
	slices.Sort(times[:])
	return times[len(times)/2]
}
