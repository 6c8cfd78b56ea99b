package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one benchmark run: one workload, one pass.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // 40-word fixture, one set-up, no validity rules
	outDir   string // bundles and traces go here

	// perturb, when set, edits the reference transcripts after the reference
	// pass. Tests use it to show the correctness gate trips.
	perturb func(refs [][]int32)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run reports. Metrics holds the end-to-end metrics
// of an untraced run or the per-layer metrics of a traced one.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	samples  map[string]int // sample count behind each percentile
	failures []string       // correctness-gate failures
	warnings []string       // what the run discarded or could not tidy up
	set      map[string]bool
}

// fixture is a built, saved and loaded model with its test pool.
type fixture struct {
	kind   fixtureKind
	sys    *system
	pool   []utterance
	frames int64 // frames in pool
	bundle string
	rec    *recognizer // fast-loaded from bundle, open until release

	setupS, buildS, saveS float64 // medians over the set-ups
	sizes                 graphSizes
	bundleBytes           int64
	testUtts              int
}

func (fx *fixture) release() {
	if fx.rec != nil {
		fx.rec.close() // read-only mapping: nothing to lose on error
		fx.rec = nil
	}
	os.Remove(fx.bundle) // best effort; outDir is scratch space
}

// setupFixture builds the model, saves it as a v3 bundle and loads it back
// on the fast path, repeats times over, and keeps the last one. The
// reported times are medians over the repeats.
func setupFixture(kind fixtureKind, dir string, repeats int, tr *tracer) (*fixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fx := &fixture{kind: kind, bundle: filepath.Join(dir, kind.name+".ufb3")}
	var total, build, save []float64
	for i := 0; i < repeats; i++ {
		if fx.rec != nil {
			if err := fx.rec.close(); err != nil {
				return nil, err
			}
		}
		fx.sys, fx.rec = nil, nil
		runtime.GC()
		var err error
		t0 := time.Now()
		tr.call(spanTaskBuild, -1, -1, func() { fx.sys, err = buildSystem(kind.spec) })
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		tr.call(spanSaveFlat, -1, -1, func() { err = fx.sys.saveFlat(fx.bundle) })
		if err != nil {
			return nil, fmt.Errorf("saving %s: %w", fx.bundle, err)
		}
		t2 := time.Now()
		tr.call(spanLoadFast, -1, -1, func() { fx.rec, err = loadFast(fx.bundle) })
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", fx.bundle, err)
		}
		t3 := time.Now()
		total = append(total, t3.Sub(t0).Seconds())
		build = append(build, t1.Sub(t0).Seconds())
		save = append(save, t2.Sub(t1).Seconds())
	}
	fx.setupS, fx.buildS, fx.saveS = median(total), median(build), median(save)
	fx.sizes = fx.sys.sizes()
	if st, err := os.Stat(fx.bundle); err == nil {
		fx.bundleBytes = st.Size()
	}
	for _, u := range fx.sys.testSet() {
		fx.testUtts++
		if len(fx.pool) < kind.poolSize && len(u.frames) >= kind.minFrames && len(u.frames) <= kind.maxFrames {
			fx.pool = append(fx.pool, u)
			fx.frames += int64(len(u.frames))
		}
	}
	if len(fx.pool) < kind.poolSize {
		fx.release()
		return nil, fmt.Errorf("%s: only %d of %d test utterances have %d-%d frames, want %d",
			kind.name, len(fx.pool), fx.testUtts, kind.minFrames, kind.maxFrames, kind.poolSize)
	}
	return fx, nil
}

// run carries one run's state through its workload.
type run struct {
	cfg   runConfig
	fx    *fixture
	tr    *tracer
	rng   *rand.Rand
	res   *runResult
	layer map[string]float64

	refs     [][]int32 // reference transcript per pool utterance
	warmS    float64   // warm-up time, added to setup_s
	heapLive float64   // live heap while the workload's decoders or server are still up

	// Timed-segment accumulators. Every timed operation is booked under its
	// input (a pool utterance; on serve_mixed an utterance on one route), and
	// the latency metrics are percentiles across inputs of each input's
	// median over the run: every run times the same inputs equally often, so
	// neither the draw of inputs nor a slow stretch of the machine shorter
	// than half the run moves them.
	perKey    [][]float64 // latency samples per input, ms
	perFirst  [][]float64 // time to first output per input, ms
	keyFrames []int       // frames of each input
	latMs     []float64   // per-input median latency, set by fold
	firstMs   []float64   // per-input median time to first output, set by fold
	fps       float64     // frames_per_s
	sloOps    int         // operations held against the latency limit
	withinSLO int

	// What the timed loops really took, for the traced pass's overhead ratio.
	rawFrames  int64
	rawElapsed time.Duration
}

func (r *run) failf(format string, args ...any) {
	r.res.failures = append(r.res.failures, fmt.Sprintf(format, args...))
}

func (r *run) warnf(format string, args ...any) {
	r.res.warnings = append(r.res.warnings, fmt.Sprintf(format, args...))
}

// keys sizes the per-input accumulators and forgets earlier samples.
func (r *run) keys(frames []int) {
	r.keyFrames = frames
	r.perKey = make([][]float64, len(frames))
	r.perFirst = make([][]float64, len(frames))
	r.sloOps, r.withinSLO = 0, 0
}

// sample books one finished operation of the timed segment under its input.
// A failed operation has no latency and misses the limit. firstMs < 0 means
// the operation has no first output of its own.
func (r *run) sample(key int, ok bool, latMs, firstMs float64) {
	r.res.Attempted++
	r.sloOps++
	if !ok {
		r.res.Failed++
		return
	}
	r.perKey[key] = append(r.perKey[key], latMs)
	if firstMs >= 0 {
		r.perFirst[key] = append(r.perFirst[key], firstMs)
	}
	if latMs <= float64(r.fx.kind.sloLimit[r.cfg.workload])/float64(time.Millisecond) {
		r.withinSLO++
	}
}

// fold reduces the samples to one median per input and returns the frames
// of the inputs that have one.
func (r *run) fold() (frames int64) {
	r.latMs, r.firstMs = nil, nil
	for k, v := range r.perKey {
		if len(v) > 0 {
			r.latMs = append(r.latMs, median(v))
			frames += int64(r.keyFrames[k])
		}
		if f := r.perFirst[k]; len(f) > 0 {
			r.firstMs = append(r.firstMs, median(f))
		}
	}
	return frames
}

// samples counts the values in per-input sample lists.
func samples(per [][]float64) int {
	n := 0
	for _, v := range per {
		n += len(v)
	}
	return n
}

// checkWords books a transcript mismatch as a failed operation and a gate
// failure.
func (r *run) checkWords(what string, utt int, got []int32) bool {
	if sameWords(got, r.refs[utt]) {
		return true
	}
	r.failf("%s: utterance %d decoded %v, reference pass decoded %v", what, utt, got, r.refs[utt])
	return false
}

// referencePass decodes the pool once in pool order: it fills r.refs, warms
// the decoder and yields the workload's deterministic word error rate.
func (r *run) referencePass(decode func(u utterance) ([]int32, error)) (float64, error) {
	r.refs = make([][]int32, len(r.fx.pool))
	truth := make([][]int32, len(r.fx.pool))
	for i, u := range r.fx.pool {
		words, err := decode(u)
		if err != nil {
			return 0, fmt.Errorf("reference pass, utterance %d: %w", i, err)
		}
		r.refs[i], truth[i] = words, u.ref
	}
	wer := werPct(truth, r.refs)
	if r.cfg.perturb != nil {
		r.cfg.perturb(r.refs)
	}
	return wer, nil
}

// splitOp decodes one utterance as ScoreUtterance + Decode under a bench.op
// span, which is how the traced pass sees the acoustic and decoder layers
// apart.
func (r *run) splitOp(dec *searcher, tr *tracer, u utterance, op int) ([]int32, searchStats) {
	id := tr.begin(spanOp, -1, op)
	var scores [][]float32
	tr.call(spanScore, id, op, func() { scores = r.fx.sys.score(u.frames) })
	var words []int32
	var st searchStats
	tr.call(spanDecode, id, op, func() { words, st = dec.decode(scores) })
	tr.end(id)
	return words, st
}

// timedPasses times decode on every pool utterance, one whole pass after
// another, each in its own seeded order, for as many passes as fit in d and
// at least minPasses. One client, closed loop: the sum of the per-utterance
// medians is the wall time of one undisturbed pass, which is what
// frames_per_s is taken over.
func (r *run) timedPasses(d time.Duration, minPasses int, what string, decode func(u utterance, op int) ([]int32, error)) {
	pool := r.fx.pool
	frames := make([]int, len(pool))
	for i, u := range pool {
		frames[i] = len(u.frames)
	}
	r.keys(frames)
	start := time.Now()
	op := 0
	// Another pass is made while one is owed or, at the mean pass time so
	// far, it would still end within d.
	for pass := 0; pass < minPasses || time.Since(start)*time.Duration(pass+1) <= d*time.Duration(pass); pass++ {
		for _, i := range r.rng.Perm(len(pool)) {
			u := pool[i]
			t0 := time.Now()
			words, err := decode(u, op)
			lat := float64(time.Since(t0)) / 1e6
			op++
			if err != nil {
				r.failf("%s: utterance %d: %v", what, i, err)
			}
			r.sample(i, err == nil && r.checkWords(what, i, words), lat, -1)
			r.rawFrames += int64(len(u.frames))
		}
	}
	r.rawElapsed += time.Since(start)
	var sum float64
	n := r.fold()
	for _, ms := range r.latMs {
		sum += ms
	}
	r.fps = ratio(float64(n), sum/1e3)
}

// tracedPasses runs whole pool-order passes of splitOp under the tracer
// until d has passed (at least one). The first pass gives the count
// metrics, which therefore repeat exactly; all passes feed the time split.
// It returns the frames decoded.
func (r *run) tracedPasses(dec *searcher, d time.Duration, what string) int64 {
	var first searchStats
	var frames int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	op := 0
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		for i, u := range r.fx.pool {
			words, st := r.splitOp(dec, r.tr, u, op)
			op++
			r.res.Attempted++
			if !r.checkWords(what, i, words) {
				r.res.Failed++
			}
			if pass == 0 {
				first.add(st)
			}
			frames += int64(len(u.frames))
		}
	}
	runtime.ReadMemStats(&m1)
	r.layerCounts(first)
	r.layerAllocs(m0, m1, frames)
	return frames
}

// layerCounts turns one pass's work counters into the decoder.* count
// metrics.
func (r *run) layerCounts(s searchStats) {
	f := float64(s.Frames)
	r.layer["decoder.tokens_per_frame"] = ratio(float64(s.TokensExpanded), f)
	r.layer["decoder.tokens_created_per_frame"] = ratio(float64(s.TokensCreated), f)
	r.layer["decoder.beam_cut_ratio"] = ratio(float64(s.TokensBeamCut), float64(s.TokensCreated))
	r.layer["decoder.arcs_per_frame"] = ratio(float64(s.Arcs), f)
	r.layer["decoder.eps_per_frame"] = ratio(float64(s.Eps), f)
	r.layer["decoder.lm_fetches_per_frame"] = ratio(float64(s.LMFetches), f)
	r.layer["decoder.lm_probes_per_fetch"] = ratio(float64(s.LMProbes), float64(s.LMFetches))
	r.layer["decoder.backoff_hops_per_fetch"] = ratio(float64(s.BackoffHops), float64(s.LMFetches))
	r.layer["decoder.memo_hit_ratio"] = ratio(float64(s.MemoHits), float64(s.MemoHits+s.MemoMisses))
	r.layer["decoder.preemptive_pruned_ratio"] = ratio(float64(s.PreemptivePruned), float64(s.LMFetches))
	r.layer["decoder.lattice_entries_per_frame"] = ratio(float64(s.LatticeEntries), f)
	r.layer["decoder.rescues"] = float64(s.Rescues)
	r.layer["decoder.search_failures"] = float64(s.SearchFailures)
}

// layerAllocs reports process-wide heap allocation per decoded frame
// between two snapshots. On serve_mixed that includes the HTTP layers and
// the benchmark's own client.
func (r *run) layerAllocs(m0, m1 runtime.MemStats, frames int64) {
	r.layer["decoder.allocs_per_frame"] = ratio(float64(m1.Mallocs-m0.Mallocs), float64(frames))
	r.layer["decoder.alloc_bytes_per_frame"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(frames))
}

// layerTimeSplit reads the acoustic/decoder time split and the span
// accounting off bench.op spans with acoustic.score and decoder.decode
// children that decoded frames frames. It returns the operations' summed
// wall time in ns.
func (r *run) layerTimeSplit(spans []span, frames int64) float64 {
	totals, _ := selfTimes(spans)
	score, decode, op := totals[spanScore], totals[spanDecode], totals[spanOp]
	if score == nil || decode == nil || op == nil {
		return 0
	}
	r.layer["acoustic.score_ns_per_frame"] = ratio(float64(score.self), float64(frames))
	r.layer["decoder.search_ns_per_frame"] = ratio(float64(decode.self), float64(frames))
	r.layer["acoustic.time_share"] = ratio(float64(score.self), float64(op.total))
	r.layer["decoder.time_share"] = ratio(float64(decode.self), float64(op.total))
	r.layer["bench.span_sum_ratio"] = spanSumRatio(spans, spanOp)
	return float64(op.total)
}

// nsPerFrame is the timed loops' wall time per decoded frame.
func (r *run) nsPerFrame() float64 { return ratio(float64(r.rawElapsed), float64(r.rawFrames)) }

// minPasses is the fewest passes over the inputs an untraced timed segment
// makes: a median per input needs three samples, and three passes of 64
// inputs are the operations latency_p90_ms needs under the sample-count
// rule. A slow box runs past -seconds rather than report less.
func (r *run) minPasses() int {
	if r.cfg.smoke || r.cfg.trace {
		return 1
	}
	return 3
}

// sampleHeap reads the live heap of an untraced run. Each workload calls it
// at the end of its timed segment and keeps its decoder, or its server and
// client, alive across the call: heap_live_bytes is what the process holds
// while serving, not what is left once the workload has returned.
func (r *run) sampleHeap() {
	if r.cfg.trace {
		return
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapLive = float64(ms.HeapAlloc)
}

// checkMirror holds layers.go's copy of System.Recognize's search
// configuration against Recognize itself, on the whole pool. The split
// decoders and the wide beam are built from that copy (Recognize's own
// configuration is private), so when the defaults move and the copy does
// not, the run fails here instead of measuring a fork of the default path.
// Recognize returns no Stats, so transcripts are what can be compared; on
// big-gmm they tell preemptive pruning on from off in 3 of 64 utterances.
func (r *run) checkMirror() error {
	dec, err := r.fx.sys.newSearcher(searchRecognize)
	if err != nil {
		return err
	}
	for i, u := range r.fx.pool {
		want, err := r.fx.sys.recognize(u.frames)
		if err != nil {
			return fmt.Errorf("default-configuration check, utterance %d: %w", i, err)
		}
		if got, _ := r.splitOp(dec, nil, u, 0); !sameWords(got, want) {
			r.failf("default search configuration drifted: utterance %d decodes to %v on the benchmark's copy, %v through Recognize", i, got, want)
		}
	}
	return nil
}

// offline is the shape search_wide and score_dense share. plain is the
// call a user makes; split is the same work as ScoreUtterance + Decode on
// dec. Untraced: reference pass, then a closed loop of plain for
// -seconds. Traced: reference pass on dec, half the time untraced as the
// overhead baseline, then whole traced passes.
func (r *run) offline(mode searchMode, plain func(dec *searcher, u utterance) ([]int32, error)) (float64, error) {
	dec, err := r.fx.sys.newSearcher(mode)
	if err != nil {
		return 0, err
	}
	if mode == searchWideBeam || r.cfg.trace { // the runs that decode on dec
		if err := r.checkMirror(); err != nil {
			return 0, err
		}
	}
	ref := func(u utterance) ([]int32, error) { return plain(dec, u) }
	if r.cfg.trace {
		ref = func(u utterance) ([]int32, error) {
			words, _ := r.splitOp(dec, nil, u, 0)
			return words, nil
		}
	}
	t0 := time.Now()
	wer, err := r.referencePass(ref)
	if err != nil {
		return 0, err
	}
	r.warmS = time.Since(t0).Seconds()
	d := time.Duration(r.cfg.seconds * float64(time.Second))
	loop := func(u utterance, _ int) ([]int32, error) { return plain(dec, u) }
	if !r.cfg.trace {
		r.timedPasses(d, r.minPasses(), "timed loop", loop)
		r.sampleHeap()
		runtime.KeepAlive(dec)
		return wer, nil
	}
	r.layerProbes(dec, mode)
	r.timedPasses(d/2, 1, "untraced baseline", loop)
	base := r.nsPerFrame()
	frames := r.tracedPasses(dec, d/2, "traced pass")
	opNs := r.layerTimeSplit(r.tr.snapshot(), frames)
	r.layer["bench.trace_overhead_ratio"] = ratio(ratio(opNs, float64(frames)), base)
	return wer, nil
}

func (r *run) searchWide() (float64, error) {
	return r.offline(searchWideBeam, func(dec *searcher, u utterance) ([]int32, error) {
		words, _ := r.splitOp(dec, nil, u, 0)
		return words, nil
	})
}

func (r *run) scoreDense() (float64, error) {
	return r.offline(searchRecognize, func(_ *searcher, u utterance) ([]int32, error) {
		return r.fx.sys.recognize(u.frames)
	})
}

// coldOps is how many cold starts the traced pass's probe makes.
const coldOps = 16

// coldProbe measures what no workload pays more than once: it loads the
// bundle, decodes one utterance and closes, coldOps times over, and decodes
// each utterance again on the then-warm recognizer. Memo fill, lazy tables,
// page faults on the mapping and anything moved into load are paid on every
// operation here, where the workloads amortise them: a change that buys
// search_wide speed with load-time precomputation shows as a loss in
// flatstore.cold_first_ms. The cold transcript must equal the warm one.
func (r *run) coldProbe() {
	var loadMs, firstMs, penalties []float64
	for i, u := range r.fx.pool[:min(coldOps, len(r.fx.pool))] {
		op := -1000 - i
		var rec *recognizer
		var err error
		t0 := time.Now()
		r.tr.call(spanLoadFast, -1, op, func() { rec, err = loadFast(r.fx.bundle) })
		if err != nil {
			r.failf("cold start %d: %v", i, err)
			return
		}
		var cold []int32
		t1 := time.Now()
		r.tr.call(spanRecognize, -1, op, func() { cold, err = rec.recognize(u.frames) })
		t2 := time.Now()
		warm, werr := rec.recognize(u.frames)
		t3 := time.Now()
		r.tr.call(spanClose, -1, op, func() { err = firstErr(firstErr(err, werr), rec.close()) })
		closed := time.Since(t3)
		if err != nil {
			r.failf("cold start %d: %v", i, err)
			continue
		}
		if !sameWords(cold, warm) {
			r.failf("cold start %d decoded %v, the warm recognizer %v", i, cold, warm)
			r.res.Failed++
		}
		loadMs = append(loadMs, float64(t1.Sub(t0))/1e6)
		firstMs = append(firstMs, float64(t2.Sub(t0)+closed)/1e6)
		penalties = append(penalties, ratio(float64(t2.Sub(t1)), float64(t3.Sub(t2))))
	}
	// Unlike the set-up's load, these find the file in the page cache.
	r.layer["flatstore.load_fast_ms"] = median(loadMs)
	r.layer["flatstore.cold_first_ms"] = median(firstMs)
	r.layer["decoder.first_utt_penalty"] = median(penalties)
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// directSplit runs the pool twice through splitOp on dec, outside any
// timed segment, and books the second (warm) pass's counts and time split.
// serve_mixed uses it for its decoder.* and acoustic.* numbers, which its
// own operations cannot see from outside.
func (r *run) directSplit(dec *searcher) {
	for _, u := range r.fx.pool {
		r.splitOp(dec, nil, u, 0)
	}
	tr := newTracer()
	var st searchStats
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, u := range r.fx.pool {
		_, s := r.splitOp(dec, tr, u, i)
		st.add(s)
	}
	runtime.ReadMemStats(&m1)
	r.layerCounts(st)
	r.layerAllocs(m0, m1, r.fx.frames)
	r.layerTimeSplit(tr.snapshot(), r.fx.frames)
}

// layerProbes measures the layers no workload operation isolates: the
// incremental decoder API, the batch pool, the verified load and the cold
// start.
func (r *run) layerProbes(dec *searcher, mode searchMode) {
	probe := r.fx.pool
	if mode == searchWideBeam && len(probe) > 16 {
		probe = probe[:16] // a wide-beam utterance costs ~80 ms per decode
	}
	scores := make([][][]float32, len(probe))
	var frames int64
	for i, u := range probe {
		scores[i] = r.fx.sys.score(u.frames)
		frames += int64(len(u.frames))
	}

	// decoder.NewStream: Push per frame, Partial every streamChunk frames.
	var pushNs, partialNs, partials int64
	for i, sc := range scores {
		op := -2 - i
		words, err := dec.stream(sc, streamChunk,
			func(run func()) {
				t0 := time.Now()
				r.tr.call(spanStreamPush, -1, op, run)
				pushNs += int64(time.Since(t0))
			},
			func(run func()) {
				t0 := time.Now()
				r.tr.call(spanPartial, -1, op, run)
				partialNs += int64(time.Since(t0))
				partials++
			})
		if err != nil {
			r.failf("stream probe, utterance %d: %v", i, err)
		} else if !r.checkWords("stream probe", i, words) {
			r.res.Failed++
		}
	}
	r.layer["decoder.stream_push_ns_per_frame"] = ratio(float64(pushNs), float64(frames))
	r.layer["decoder.partial_us"] = ratio(float64(partialNs)/1e3, float64(partials))

	// DecodePool: one warm batch solo and one at workers = nproc.
	nproc := runtime.NumCPU()
	rate := func(workers int) (float64, poolResult) {
		p, err := r.fx.sys.newPool(workers, mode)
		if err != nil {
			r.failf("pool probe: %v", err)
			return 0, poolResult{}
		}
		var res poolResult
		var took time.Duration
		for pass := 0; pass < 2 && err == nil; pass++ { // first batch warms the caches
			t0 := time.Now()
			r.tr.call(spanPoolBatch, -1, -1, func() { res, err = p.batch(scores) })
			took = time.Since(t0)
		}
		if err != nil || res.failed > 0 {
			r.failf("pool probe at %d workers: %d failed, %v", workers, res.failed, err)
			return 0, res
		}
		for i, w := range res.words {
			r.checkWords("pool probe", i, w)
		}
		return float64(frames) / took.Seconds(), res
	}
	solo, _ := rate(1)
	full, res := rate(nproc)
	r.layer["pool.batch_frames_per_s"] = full
	r.layer["pool.scaling_efficiency"] = ratio(full, float64(nproc)*solo)
	r.layer["pool.l2_hit_ratio"] = ratio(float64(res.l2Hits), float64(res.l2Hits+res.l2Misses))

	t0 := time.Now()
	rec, err := loadVerified(r.fx.bundle)
	if err != nil {
		r.failf("verified load: %v", err)
		return
	}
	r.layer["flatstore.load_verify_ms"] = float64(time.Since(t0)) / 1e6
	rec.close() // read-only mapping

	r.coldProbe()
}

// setupRepeats is how many times a run sets its fixture up; setup_s reports
// the median. Two, because a set-up costs 4 s and the driver's time limit
// for all its runs is better spent on the timed segment; the driver takes
// the median of ten runs on top. -smoke and the tests set up once.
const setupRepeats = 2

// werTolerance is how far a run's WER may sit from the recorded value: the
// recorded values carry four decimals, and one word moves the big pools'
// WER by 0.3.
const werTolerance = 1e-3

// runWorkload sets up the fixture, runs one workload once and assembles
// the pass's metrics.
func runWorkload(cfg runConfig) (*runResult, error) {
	kind := kindFor(cfg.workload, cfg.smoke)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	repeats := setupRepeats
	if cfg.smoke {
		repeats = 1
	}
	fx, err := setupFixture(kind, cfg.outDir, repeats, tr)
	if err != nil {
		return nil, err
	}
	defer fx.release()
	r := &run{
		cfg: cfg, fx: fx, tr: tr,
		rng:   rand.New(rand.NewSource(cfg.seed)),
		res:   &runResult{Metrics: map[string]metricValue{}, samples: map[string]int{}},
		layer: map[string]float64{},
	}
	var wer float64
	switch cfg.workload {
	case searchWide:
		wer, err = r.searchWide()
	case scoreDense:
		wer, err = r.scoreDense()
	case serveMixed:
		wer, err = r.serveMixed()
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	if want, ok := kind.wer[cfg.workload]; ok && math.Abs(wer-want) > werTolerance {
		r.failf("WER is %.6f%%, recorded value for %s on %s is %.6f%%", wer, cfg.workload, kind.name, want)
	}
	if r.res.Attempted == 0 {
		r.failf("no operation finished within %.1f s", cfg.seconds)
		r.res.Attempted = 1
	}

	if cfg.trace {
		r.staticLayers()
		r.layer["bench.failed_ratio"] = ratio(float64(r.res.Failed), float64(r.res.Attempted))
		for _, d := range perLayerDefs {
			r.res.Metrics[d.Name] = metricValue{r.layer[d.Name], d.Unit}
		}
		r.res.set = map[string]bool{}
		for name := range r.layer {
			r.res.set[name] = true
		}
		if err := tr.write(cfg.outDir, cfg.workload); err != nil {
			return nil, err
		}
	} else {
		e2e := map[string]float64{
			"setup_s":              fx.setupS + r.warmS,
			"frames_per_s":         r.fps,
			"latency_p50_ms":       percentile(r.latMs, 0.50),
			"latency_p90_ms":       percentile(r.latMs, 0.90),
			"slo_met_ratio":        ratio(float64(r.withinSLO), float64(r.sloOps)),
			"word_accuracy_pct":    100 - wer,
			"model_resident_bytes": float64(fx.rec.residentBytes()),
			"heap_live_bytes":      r.heapLive,
		}
		for _, d := range endToEndDefs {
			r.res.Metrics[d.Name] = metricValue{e2e[d.Name], d.Unit}
		}
		ops := samples(r.perKey)
		r.res.samples["latency_p50_ms"], r.res.samples["latency_p90_ms"] = ops, ops
		if !cfg.smoke && !supported(ops, 0.90) {
			r.failf("latency_p90_ms rests on %d operations, fewer than %d beyond it", ops, minBeyond)
		}
	}
	r.res.Correct = len(r.res.failures) == 0 && r.res.Failed == 0
	return r.res, nil
}

// staticLayers books the numbers that depend on the fixture alone.
func (r *run) staticLayers() {
	fx, l := r.fx, r.layer
	l["task.build_s"] = fx.buildS
	l["task.vocab"] = float64(fx.sizes.vocab)
	l["task.test_utterances"] = float64(len(fx.pool))
	l["task.test_frames"] = float64(fx.frames)
	l["wfst.am_states"] = float64(fx.sizes.amStates)
	l["wfst.am_arcs"] = float64(fx.sizes.amArcs)
	l["wfst.lm_states"] = float64(fx.sizes.lmStates)
	l["wfst.lm_arcs"] = float64(fx.sizes.lmArcs)
	l["wfst.csr_bytes"] = float64(fx.sizes.csrBytes)
	l["compress.packed_bytes"] = float64(fx.sizes.packedBytes)
	l["compress.ratio"] = ratio(float64(fx.sizes.csrBytes), float64(fx.sizes.packedBytes))
	l["flatstore.save_s"] = fx.saveS
	l["flatstore.bundle_bytes"] = float64(fx.bundleBytes)
	if fx.rec.mapped() {
		l["flatstore.mapped"] = 1
	} else {
		l["flatstore.mapped"] = 0
	}
}
