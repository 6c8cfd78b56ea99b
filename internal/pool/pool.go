// Package pool provides the concurrent decoding engine over one pair of
// AM/LM graphs: a DecodePool fans a batch of utterances — score rows, or
// feature frames the worker scores as its search reads them — out to
// worker goroutines, one whole utterance per worker. Every worker owns a
// private on-the-fly decoder, and with it a private offset table that stays
// warm across the utterances it decodes; the graphs are the only state the
// decoders share, and they are read-only.
//
// The pool isolates faults per utterance (a panic or memory fault, caught
// by the decoder's session, becomes a typed DecodeError; cancellation
// returns partial results) and is deterministic: each utterance is searched
// by exactly one decoder, and offset-table contents never decide a result,
// so any worker count or interleaving produces results byte-identical to
// sequential decoding. That determinism is asserted by this package's tests.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acoustic"
	"repro/internal/decoder"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/wfst"
)

// Config sizes a DecodePool. The zero value selects serving-friendly
// defaults for every field.
type Config struct {
	// Workers is the number of decoding goroutines; each owns one
	// on-the-fly decoder. Defaults to GOMAXPROCS.
	Workers int
	// Decoder configures each worker's beam search.
	Decoder decoder.Config
	// Telemetry, when non-nil, publishes pool observability — worker
	// utilization, batch throughput and fault classes — and threads its
	// shared decoder instrument set into every worker. nil (the default)
	// disables all telemetry work; results are identical either way. Build
	// one with NewTelemetry.
	Telemetry *Telemetry
}

// DecodePool fans batches of scored utterances out to a fixed set of
// workers. Construction is cheap relative to the graphs (the workers borrow
// the caller's AM/LM), so a pool can be long-lived and reused across
// batches — each worker's offset table stays warm, which is exactly the
// locality the paper's Offset Lookup Table exploits across utterances.
//
// Decode calls may overlap: each call checks workers out of a free list,
// so concurrent batches split the pool between them instead of corrupting
// worker state.
// Results are deterministic and identical to sequential decoding for any
// worker count and any interleaving — each utterance is decoded whole by
// one worker, and offset-table contents never change results.
type DecodePool struct {
	cfg Config
	// idle is the worker free list: it holds every worker's decoder not
	// currently checked out by a Decode call, and its capacity is the pool
	// size.
	idle chan *decoder.OnTheFly
}

// New builds a pool of cfg.Workers decoders over the AM and LM graphs (the
// same pair NewOnTheFly takes; the LM must be input-sorted).
func New(amGraph, lmGraph *wfst.WFST, cfg Config) (*DecodePool, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	p := &DecodePool{cfg: cfg, idle: make(chan *decoder.OnTheFly, cfg.Workers)}
	dcfg := cfg.Decoder
	dcfg.Telemetry = cfg.Telemetry.decoderTelemetry()
	for i := 0; i < cfg.Workers; i++ {
		d, err := decoder.NewOnTheFly(amGraph, lmGraph, dcfg)
		if err != nil {
			return nil, fmt.Errorf("pool: worker %d: %w", i, err)
		}
		p.idle <- d
	}
	cfg.Telemetry.observePool(p)
	return p, nil
}

// checkout claims up to want workers: it blocks until one is free, or
// claims none when ctx ends first, then greedily grabs any further idle
// workers without waiting — a batch running alongside others takes what it
// can get and its workers balance the utterances between them.
func (p *DecodePool) checkout(ctx context.Context, want int) []*decoder.OnTheFly {
	if want == 0 {
		return nil
	}
	decs := make([]*decoder.OnTheFly, 0, want)
	select {
	case d := <-p.idle:
		decs = append(decs, d)
	case <-ctx.Done():
		return nil
	}
	for len(decs) < want {
		select {
		case d := <-p.idle:
			decs = append(decs, d)
		default:
			return decs
		}
	}
	return decs
}

// Workers reports the pool's worker count.
func (p *DecodePool) Workers() int { return cap(p.idle) }

// Batch is the result of one DecodePool.Decode call.
type Batch struct {
	// Results holds one decode result per input utterance, index-aligned
	// with the scores passed to Decode.
	Results []*decoder.Result
	// Throughput aggregates the batch: utterances/sec, frames/sec,
	// aggregate RTF and offset-table hit rate over the batch's wall time.
	Throughput metrics.Throughput
	// Decoder sums the per-utterance search statistics.
	Decoder decoder.Stats
	// Cache is always zero. It outlived the shared cache it reported only
	// because bench/layers.go:237, its one reader, may not change in the
	// same PR as this package; the hit ratio lives in Decoder.MemoHits /
	// Decoder.MemoMisses.
	Cache struct{ L2Hits, L2Misses int64 }
	// Errors is index-aligned with Results: Errors[i] is non-nil when
	// utterance i failed (worker panic) or was cut short / skipped by
	// cancellation. Results[i] then holds whatever partial result exists,
	// possibly nil. A fully healthy batch has only nil entries.
	Errors []*DecodeError
	// Search aggregates the batch's search-health counters: rescues,
	// search failures, recovered panics, and cancellations.
	Search metrics.Search
}

// Failed reports how many utterances in the batch carry an error.
func (b *Batch) Failed() int {
	var n int
	for _, e := range b.Errors {
		if e != nil {
			n++
		}
	}
	return n
}

// Decode runs the batch: scores[i] is utterance i's acoustic score matrix
// (as produced by acoustic.Scorer.ScoreUtterance). Workers claim utterances
// in input order as each frees up, so long and short utterances balance;
// the result order matches the input order whichever worker decoded what.
func (p *DecodePool) Decode(scores [][][]float32) (*Batch, error) {
	return p.DecodeContext(context.Background(), scores, nil, decoder.Options{})
}

// DecodeContext decodes a batch at the search options opts, with
// deadline/cancellation and per-utterance fault isolation. utts[i] is
// utterance i's score rows when sc is nil, or its feature frames when sc is
// set: the worker that decodes it then scores them with sc as the search
// reads them (an acoustic.Utterance fed to decoder.DecodeContext), so a GMM
// scores only the senones each pruned frontier reads, with the same result
// bits as over sc's ScoreUtterance rows.
//
//   - opts is installed on every worker the batch checks out, while the
//     batch holds it exclusively, and applies to this batch alone. The zero
//     Options decodes at the configured search.
//   - A panic mid-utterance (a corrupted score row read out of range, a
//     scorer panic, a memory fault on a truncated mapped bundle), caught
//     by the decoder's session, is a StageSearch Batch.Errors[i] with no
//     result; every other utterance's result stays byte-identical to a
//     sequential decode.
//   - Cancellation is checked per frame inside each worker and before
//     each utterance it claims, so the call returns promptly with
//     index-aligned partial results and ctx.Err(). Utterances cut short or
//     never started carry a StageCanceled error.
//
// The returned Batch is always non-nil; the error is ctx.Err() when the
// context ended the batch (including while waiting for a free worker), nil
// otherwise — per-utterance faults live in Batch.Errors.
func (p *DecodePool) DecodeContext(ctx context.Context, utts [][][]float32, sc acoustic.Scorer, opts decoder.Options) (*Batch, error) {
	start := time.Now()
	n := len(utts)
	// runtime/metrics sampling: span-granular, so a warm batch's few small
	// allocations can read as zero, but it never stops the world the way a
	// MemStats read does — twice per request on a busy server.
	a0 := metrics.ReadAllocCounters()
	results := make([]*decoder.Result, n)
	errs := make([]*DecodeError, n)

	var next atomic.Int64 // the next utterance a worker claims
	var wg sync.WaitGroup
	// The busy gauge is extracted once: a nil pool telemetry leaves it nil,
	// and nil-gauge updates are free no-ops.
	var workersBusy *telemetry.Gauge
	if p.cfg.Telemetry != nil {
		workersBusy = p.cfg.Telemetry.WorkersBusy
	}
	for _, dec := range p.checkout(ctx, min(p.Workers(), n)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The caller holds the worker exclusively until it is returned
			// to the free list, so installing the batch's options here
			// cannot race with another batch, and every batch installs its
			// own, so a worker never carries a previous batch's.
			optErr := dec.SetOptions(opts)
			var rows scoreRows
			var u *acoustic.Utterance // this worker's scorer, for a feature batch
			if sc != nil {
				u = acoustic.NewUtterance(sc)
				defer u.Close()
			}
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if err := ctx.Err(); err != nil {
					// Claim the rest cheaply, each canceled.
					errs[i] = &DecodeError{Utterance: i, Stage: StageCanceled, Cause: err}
					continue
				}
				if optErr != nil {
					// The bias machine does not fit this model's graphs; the
					// whole batch asked for it, so every utterance fails the
					// same way rather than silently decoding unbiased.
					errs[i] = &DecodeError{Utterance: i, Stage: StageSearch, Cause: optErr}
					continue
				}
				var src decoder.Feeder = &rows
				if u != nil {
					u.Reset()
					u.Load(utts[i])
					src = u
				} else {
					rows = utts[i]
				}
				workersBusy.Inc()
				res, err := dec.DecodeContext(ctx, src, len(utts[i]))
				workersBusy.Dec()
				if err != nil && err != ctx.Err() {
					// A fault the decoder's session caught: the utterance
					// fails alone with no result, and the worker, whose
					// decoder keeps no state that decides a result, goes on.
					errs[i] = &DecodeError{Utterance: i, Stage: StageSearch, Cause: err}
					continue
				}
				results[i] = res
				if err != nil {
					errs[i] = &DecodeError{Utterance: i, Stage: StageCanceled, Cause: err}
				}
			}
			p.idle <- dec
		}()
	}
	wg.Wait()
	for i := min(int(next.Load()), n); i < n; i++ {
		// No worker was free before ctx ended: utterance i never started.
		errs[i] = &DecodeError{Utterance: i, Stage: StageCanceled, Cause: ctx.Err()}
	}

	alloc := metrics.ReadAllocCounters().Delta(a0)
	b := &Batch{Results: results, Errors: errs}
	for i, r := range results {
		if r != nil {
			b.Decoder.Add(r.Stats)
		}
		switch e := errs[i]; {
		case e == nil:
		case e.Stage == StageCanceled:
			b.Search.Canceled++
		default:
			b.Search.Panics++
		}
	}
	b.Search.Rescues, b.Search.Failures = b.Decoder.Rescues, b.Decoder.SearchFailures
	p.cfg.Telemetry.recordBatch(n, time.Since(start),
		searchDelta{panics: b.Search.Panics, canceled: b.Search.Canceled})
	b.Throughput = metrics.Throughput{
		Utterances:   n,
		Frames:       b.Decoder.Frames,
		Wall:         time.Since(start),
		CacheHits:    b.Decoder.MemoHits,
		CacheLookups: b.Decoder.MemoHits + b.Decoder.MemoMisses,
		AllocBytes:   int64(alloc.Bytes),
		AllocObjects: int64(alloc.Objects),
		GCCycles:     int64(alloc.GCs),
	}
	return b, ctx.Err()
}

// scoreRows is the decoder.Feeder over an utterance's finished score rows.
type scoreRows [][]float32

func (r *scoreRows) Row(i int, _ func() []int32) []float32 { return (*r)[i] }
