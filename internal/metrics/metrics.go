// Package metrics provides the evaluation arithmetic of the paper's
// Section 5: word error rate (Levenshtein alignment), real-time factors,
// and small aggregate helpers used by the experiment harness.
package metrics

import (
	"fmt"
	runtimemetrics "runtime/metrics"
	"time"
)

// EditOps is the breakdown of a minimum-edit-distance alignment.
type EditOps struct {
	Sub, Ins, Del int
	RefLen        int
}

// Errors returns the total error count.
func (e EditOps) Errors() int { return e.Sub + e.Ins + e.Del }

// Align computes the minimum-edit-distance operations turning ref into hyp.
func Align(ref, hyp []int32) EditOps {
	n, m := len(ref), len(hyp)
	// dp[i][j]: cost of aligning ref[:i] to hyp[:j], with backtraces.
	type cell struct {
		cost          int
		sub, ins, del int
	}
	prev := make([]cell, m+1)
	cur := make([]cell, m+1)
	for j := 1; j <= m; j++ {
		prev[j] = cell{cost: j, ins: j}
	}
	for i := 1; i <= n; i++ {
		cur[0] = cell{cost: i, del: i}
		for j := 1; j <= m; j++ {
			if ref[i-1] == hyp[j-1] {
				cur[j] = prev[j-1]
				continue
			}
			sub, del, ins := prev[j-1], prev[j], cur[j-1]
			best := sub
			best.sub++
			if del.cost < best.cost {
				best = del
				best.del++
			}
			if ins.cost < best.cost {
				best = ins
				best.ins++
			}
			best.cost++
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	c := prev[m]
	return EditOps{Sub: c.sub, Ins: c.ins, Del: c.del, RefLen: n}
}

// WERAccumulator aggregates edit operations over a test set.
type WERAccumulator struct {
	ops EditOps
	utt int
}

// Add accumulates one utterance's alignment.
func (a *WERAccumulator) Add(ref, hyp []int32) {
	o := Align(ref, hyp)
	a.ops.Sub += o.Sub
	a.ops.Ins += o.Ins
	a.ops.Del += o.Del
	a.ops.RefLen += o.RefLen
	a.utt++
}

// WER returns the aggregate word error rate in percent.
func (a *WERAccumulator) WER() float64 {
	if a.ops.RefLen == 0 {
		return 0
	}
	return 100 * float64(a.ops.Errors()) / float64(a.ops.RefLen)
}

// Ops returns the aggregated operations.
func (a *WERAccumulator) Ops() EditOps { return a.ops }

// Utterances returns how many utterances were accumulated.
func (a *WERAccumulator) Utterances() int { return a.utt }

// String renders the accumulator like the paper's Table 6 rows.
func (a *WERAccumulator) String() string {
	return fmt.Sprintf("WER %.2f%% (%d sub, %d ins, %d del / %d ref words, %d utts)",
		a.WER(), a.ops.Sub, a.ops.Ins, a.ops.Del, a.ops.RefLen, a.utt)
}

// FrameDuration is the audio time represented by one feature frame
// (Section 2: decoders split speech into 10 ms frames).
const FrameDuration = 10 * time.Millisecond

// AudioDuration returns the audio time covered by a frame count.
func AudioDuration(frames int) time.Duration {
	return time.Duration(frames) * FrameDuration
}

// RTF returns the real-time factor: how many seconds of audio are decoded
// per second of processing. Larger is faster; 1.0 is exactly real time.
func RTF(audio, processing time.Duration) float64 {
	if processing <= 0 {
		return 0
	}
	return float64(audio) / float64(processing)
}

// MeanMax summarizes a sample of durations (Table 5 reports per-utterance
// average and maximum decode times).
func MeanMax(ds []time.Duration) (mean, max time.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
		if d > max {
			max = d
		}
	}
	return sum / time.Duration(len(ds)), max
}

// AllocCounters is a point-in-time snapshot of the process's cumulative
// heap-allocation and GC counters, read cheaply (no stop-the-world) via
// runtime/metrics. The decode pool samples one before and after a batch
// and reports the Delta in Throughput, which is how the token-store
// recycling of the Viterbi hot path stays observable instead of merely
// asserted.
type AllocCounters struct {
	// Bytes is the cumulative heap bytes allocated since process start.
	Bytes uint64
	// Objects is the cumulative heap objects allocated since process start.
	Objects uint64
	// GCs is the number of completed GC cycles since process start.
	GCs uint64
}

// allocSampleNames are the runtime/metrics series backing AllocCounters.
var allocSampleNames = [3]string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

// ReadAllocCounters samples the current process-wide allocation counters.
//
// The sample is cheap but span-granular: the runtime accounts small
// allocations only when their span fills (or a GC flushes per-P caches), so
// a window that allocates less than a span per size class can read a zero
// delta. That is the price of never stopping the world: the exact figure
// needs a MemStats read, which pauses every goroutine, and serving paths
// must not pay it (`make lint` refuses one outside tests and bench/).
func ReadAllocCounters() AllocCounters {
	var samples [3]runtimemetrics.Sample
	for i := range samples {
		samples[i].Name = allocSampleNames[i]
	}
	runtimemetrics.Read(samples[:])
	return AllocCounters{
		Bytes:   samples[0].Value.Uint64(),
		Objects: samples[1].Value.Uint64(),
		GCs:     samples[2].Value.Uint64(),
	}
}

// MemoryFootprint is a point-in-time view of the process's memory and
// scheduler state, read cheaply via runtime/metrics (no stop-the-world).
// It is the serving-side counterpart of the paper's Figure 8 footprint
// comparison: a production decoder's claim to memory efficiency should be
// continuously observable, not only measured once per experiment.
type MemoryFootprint struct {
	// HeapLiveBytes is the memory occupied by live objects plus dead
	// objects not yet swept — the working-set figure a dashboard wants.
	HeapLiveBytes uint64
	// HeapGoalBytes is the GC's current heap-size target.
	HeapGoalBytes uint64
	// Goroutines is the live goroutine count (worker liveness at a glance).
	Goroutines uint64
}

// footprintSampleNames are the runtime/metrics series backing
// MemoryFootprint.
var footprintSampleNames = [3]string{
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/goal:bytes",
	"/sched/goroutines:goroutines",
}

// ReadMemoryFootprint samples the current process memory footprint. Cheap
// enough to call from a metrics scrape handler.
func ReadMemoryFootprint() MemoryFootprint {
	var samples [3]runtimemetrics.Sample
	for i := range samples {
		samples[i].Name = footprintSampleNames[i]
	}
	runtimemetrics.Read(samples[:])
	return MemoryFootprint{
		HeapLiveBytes: samples[0].Value.Uint64(),
		HeapGoalBytes: samples[1].Value.Uint64(),
		Goroutines:    samples[2].Value.Uint64(),
	}
}

// Delta returns the counter advance from start to a (a must be the later
// snapshot; the runtime counters are monotonic).
func (a AllocCounters) Delta(start AllocCounters) AllocCounters {
	return AllocCounters{
		Bytes:   a.Bytes - start.Bytes,
		Objects: a.Objects - start.Objects,
		GCs:     a.GCs - start.GCs,
	}
}

// Throughput aggregates a batch-decoding run for serving-style reporting:
// how many utterances and frames were decoded in how much wall time, and
// how well the offset cache performed. The zero value is ready for Add.
type Throughput struct {
	// Utterances decoded in the batch.
	Utterances int
	// Frames decoded across all utterances.
	Frames int
	// Wall is the elapsed wall-clock time for the whole batch (not the sum
	// of per-utterance times: with N workers it is roughly that sum / N).
	Wall time.Duration
	// CacheHits and CacheLookups summarize the offset-lookup cache; both
	// zero when the decode path does not use one.
	CacheHits    int64
	CacheLookups int64
	// AllocBytes, AllocObjects and GCCycles are the process-wide heap
	// activity observed over the batch's wall time (AllocCounters deltas).
	// With the pooled token-store frontier they stay near-constant per
	// frame; a regression shows up here before it shows up in ns/frame.
	AllocBytes   int64
	AllocObjects int64
	GCCycles     int64
}

// Add merges another batch into t (Wall adds; for concurrent batches keep
// the outer wall time yourself).
func (t *Throughput) Add(o Throughput) {
	t.Utterances += o.Utterances
	t.Frames += o.Frames
	t.Wall += o.Wall
	t.CacheHits += o.CacheHits
	t.CacheLookups += o.CacheLookups
	t.AllocBytes += o.AllocBytes
	t.AllocObjects += o.AllocObjects
	t.GCCycles += o.GCCycles
}

// UtterancesPerSec is the batch decode rate in utterances per second.
func (t Throughput) UtterancesPerSec() float64 {
	if t.Wall <= 0 {
		return 0
	}
	return float64(t.Utterances) / t.Wall.Seconds()
}

// FramesPerSec is the batch decode rate in frames per second.
func (t Throughput) FramesPerSec() float64 {
	if t.Wall <= 0 {
		return 0
	}
	return float64(t.Frames) / t.Wall.Seconds()
}

// RTF is the aggregate real-time factor of the batch: audio seconds decoded
// per wall-clock second, summed over workers (4 workers at 2x each ≈ 8x).
func (t Throughput) RTF() float64 {
	return RTF(AudioDuration(t.Frames), t.Wall)
}

// CacheHitRate is the offset-cache hit fraction in [0,1] (0 if unused).
func (t Throughput) CacheHitRate() float64 {
	if t.CacheLookups == 0 {
		return 0
	}
	return float64(t.CacheHits) / float64(t.CacheLookups)
}

// AllocsPerFrame is the average heap objects allocated per decoded frame
// over the batch (0 when no frames or no measurement).
func (t Throughput) AllocsPerFrame() float64 {
	if t.Frames == 0 {
		return 0
	}
	return float64(t.AllocObjects) / float64(t.Frames)
}

// BytesPerFrame is the average heap bytes allocated per decoded frame over
// the batch (0 when no frames or no measurement).
func (t Throughput) BytesPerFrame() float64 {
	if t.Frames == 0 {
		return 0
	}
	return float64(t.AllocBytes) / float64(t.Frames)
}

// String renders the aggregates as the one-line report unfold-decode prints
// after a parallel run.
func (t Throughput) String() string {
	s := fmt.Sprintf("%d utts (%.1f s audio) in %v: %.1f utt/s, %.0f frames/s, %.1fx real time",
		t.Utterances, AudioDuration(t.Frames).Seconds(), t.Wall.Round(time.Millisecond),
		t.UtterancesPerSec(), t.FramesPerSec(), t.RTF())
	if t.CacheLookups > 0 {
		s += fmt.Sprintf(", %.1f%% cache hit", 100*t.CacheHitRate())
	}
	if t.AllocObjects > 0 {
		s += fmt.Sprintf(", %.1f allocs/frame (%.0f B/frame, %d GCs)",
			t.AllocsPerFrame(), t.BytesPerFrame(), t.GCCycles)
	}
	return s
}

// Search aggregates search-health counters for a batch decode — the
// fault-tolerance companion to Throughput. It answers "did every utterance
// complete cleanly, and how hard did the engine have to fight for it":
// rescues are recoveries (a widened beam saved a dying search), failures
// are graceful degradations (partial hypothesis returned), panics and
// cancellations are per-utterance faults converted into typed errors.
// The zero value is ready for Add.
type Search struct {
	// Rescues counts beam widenings performed by search-failure rescue.
	Rescues int64
	// Failures counts utterances whose active-token set emptied and stayed
	// empty after any rescue attempts (a partial hypothesis was returned).
	Failures int64
	// Panics counts per-utterance decodes that panicked and were converted
	// into typed errors without poisoning the rest of the batch.
	Panics int64
	// Canceled counts utterances cut short or skipped because the batch
	// context was canceled or its deadline expired.
	Canceled int64
}

// Add merges another batch's search-health counters into s.
func (s *Search) Add(o Search) {
	s.Rescues += o.Rescues
	s.Failures += o.Failures
	s.Panics += o.Panics
	s.Canceled += o.Canceled
}

// Healthy reports whether the batch completed with no faults of any class.
func (s Search) Healthy() bool {
	return s.Rescues == 0 && s.Failures == 0 && s.Panics == 0 && s.Canceled == 0
}

// String renders the counters as the one-line health report unfold-decode
// prints after a batch with faults.
func (s Search) String() string {
	return fmt.Sprintf("search health: %d rescues, %d failures, %d panics, %d canceled",
		s.Rescues, s.Failures, s.Panics, s.Canceled)
}

// OracleWER returns the lowest WER achievable by picking the best
// hypothesis per utterance from an N-best list — the standard measure of
// how much headroom a rescoring pass (e.g. the two-pass decoder) has.
func OracleWER(refs [][]int32, nbest [][][]int32) float64 {
	var errs, words int
	for i, ref := range refs {
		words += len(ref)
		best := -1
		for _, hyp := range nbest[i] {
			if e := Align(ref, hyp).Errors(); best < 0 || e < best {
				best = e
			}
		}
		if best < 0 {
			best = len(ref) // no hypothesis: all deletions
		}
		errs += best
	}
	if words == 0 {
		return 0
	}
	return 100 * float64(errs) / float64(words)
}
