// Package pool provides the concurrent decoding engine over one pair of
// AM/LM graphs: a DecodePool fans a batch of utterances — score rows, or
// feature frames the worker scores as its search reads them — out to
// worker goroutines, one whole utterance per worker. Every worker owns a
// private on-the-fly decoder, and with it a private offset table that stays
// warm across the utterances it decodes; the graphs are the only state the
// decoders share, and they are read-only.
//
// The pool isolates faults per utterance (a panic becomes a typed
// DecodeError, cancellation returns partial results) and is deterministic:
// each utterance is searched by exactly one decoder, and offset-table
// contents never decide a result, so any worker count or interleaving
// produces results byte-identical to sequential decoding. That determinism
// is asserted by this package's tests.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
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

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// DecodePool fans batches of scored utterances out to a fixed set of
// workers. Construction is cheap relative to the graphs (the workers borrow
// the caller's AM/LM), so a pool can be long-lived and reused across
// batches — each worker's offset table stays warm, which is exactly the
// locality the paper's Offset Lookup Table exploits across utterances.
//
// Decode calls may overlap: each call checks workers out of a free list,
// so concurrent batches split the pool between them instead of corrupting
// worker state (a serving frontend issues one small batch per request).
// Results are deterministic and identical to sequential decoding for any
// worker count and any interleaving — each utterance is decoded whole by
// one worker, and offset-table contents never change results.
type DecodePool struct {
	cfg     Config
	workers []*decoder.OnTheFly
	// idle is the worker free list: it holds the index of every worker not
	// currently checked out by a Decode call.
	idle chan int
}

// New builds a pool of cfg.Workers decoders over the AM and LM graphs (the
// same pair NewOnTheFly takes; the LM must be input-sorted).
func New(amGraph, lmGraph *wfst.WFST, cfg Config) (*DecodePool, error) {
	cfg = cfg.withDefaults()
	p := &DecodePool{cfg: cfg, workers: make([]*decoder.OnTheFly, cfg.Workers)}
	dcfg := cfg.Decoder
	dcfg.Telemetry = cfg.Telemetry.decoderTelemetry()
	for i := range p.workers {
		d, err := decoder.NewOnTheFly(amGraph, lmGraph, dcfg)
		if err != nil {
			return nil, fmt.Errorf("pool: worker %d: %w", i, err)
		}
		p.workers[i] = d
	}
	p.idle = make(chan int, cfg.Workers)
	for i := range p.workers {
		p.idle <- i
	}
	cfg.Telemetry.observePool(p)
	return p, nil
}

// checkout claims up to want workers: it blocks (honouring ctx) until at
// least one is free, then greedily grabs any further idle workers without
// waiting — a batch running alongside others takes what it can get and the
// dealing loop balances utterances over it.
func (p *DecodePool) checkout(ctx context.Context, want int) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ids := make([]int, 0, want)
	select {
	case id := <-p.idle:
		ids = append(ids, id)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	for len(ids) < want {
		select {
		case id := <-p.idle:
			ids = append(ids, id)
		default:
			return ids, nil
		}
	}
	return ids, nil
}

// Workers reports the pool's worker count.
func (p *DecodePool) Workers() int { return len(p.workers) }

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
// (as produced by acoustic.Scorer.ScoreUtterance). Utterances are dealt to
// workers dynamically, so long and short utterances balance; the result
// order matches the input order regardless of which worker decoded what.
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
//   - A worker panic mid-utterance (e.g. an out-of-range read caused by a
//     corrupted score row, or a panic while scoring) is recovered and
//     recorded as Batch.Errors[i] without disturbing any other worker;
//     every other utterance's result stays byte-identical to a sequential
//     decode.
//   - Cancellation is checked per frame inside each worker and between
//     utterances at the dealing loop, so the call returns promptly with
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

	var ids []int
	if n > 0 {
		want := min(len(p.workers), n)
		var cerr error
		ids, cerr = p.checkout(ctx, want)
		if cerr != nil {
			// No worker ever ran: the whole batch is canceled work.
			for j := range errs {
				errs[j] = &DecodeError{Utterance: j, Stage: StageCanceled, Cause: cerr}
			}
		}
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	// The busy gauge is extracted once: a nil pool telemetry leaves it nil,
	// and nil-gauge updates are free no-ops.
	var workersBusy *telemetry.Gauge
	if p.cfg.Telemetry != nil {
		workersBusy = p.cfg.Telemetry.WorkersBusy
	}
	for _, id := range ids {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			dec := p.workers[id]
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
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					// Drain the remaining dealt jobs cheaply.
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
				workersBusy.Inc()
				results[i], errs[i] = decodeOne(ctx, dec, i, utts[i], u, &rows)
				workersBusy.Dec()
			}
			p.idle <- id
		}(id)
	}
	if len(ids) > 0 {
	deal:
		for i := 0; i < n; i++ {
			select {
			case jobs <- i:
			case <-ctx.Done():
				// Utterance i and everything after it were never dealt; mark
				// them canceled (workers only touch indices they received).
				for j := i; j < n; j++ {
					errs[j] = &DecodeError{Utterance: j, Stage: StageCanceled, Cause: ctx.Err()}
				}
				break deal
			}
		}
	}
	close(jobs)
	wg.Wait()

	alloc := metrics.ReadAllocCounters().Delta(a0)
	b := &Batch{Results: results, Errors: errs}
	for _, r := range results {
		if r != nil {
			b.Decoder.Add(r.Stats)
		}
	}
	b.Search = metrics.Search{Rescues: b.Decoder.Rescues, Failures: b.Decoder.SearchFailures}
	for _, e := range errs {
		if e == nil {
			continue
		}
		if e.Stage == StageCanceled {
			b.Search.Canceled++
		} else {
			b.Search.Panics++
		}
	}
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

// decodeOne runs one utterance with panic isolation: utt is its features
// when u, the worker's scorer, is set, and its score rows, fed through the
// worker's rows, otherwise. A panic anywhere in the search or the scoring
// (decoder, corrupted input)
// becomes a typed DecodeError instead of tearing down the batch. The
// worker's decoder holds no cross-utterance mutable state beyond the offset
// table, whose contents never affect results, so the worker safely
// continues with the next job.
//
// SetPanicOnFault extends the isolation to memory faults: a decode walking
// a memory-mapped v3 bundle whose backing file was truncated or whose
// device failed raises SIGBUS/SIGSEGV, which would otherwise kill the whole
// process. With the flag set for this goroutine the fault becomes a runtime
// panic, the recover below turns it into a StageSearch DecodeError, and the
// serving registry can quarantine the sick model while every other model
// keeps decoding.
func decodeOne(ctx context.Context, dec *decoder.OnTheFly, i int, utt [][]float32, u *acoustic.Utterance, rows *scoreRows) (res *decoder.Result, derr *DecodeError) {
	old := debug.SetPanicOnFault(true)
	defer debug.SetPanicOnFault(old)
	defer func() {
		if r := recover(); r != nil {
			res = nil
			derr = &DecodeError{Utterance: i, Stage: StageSearch, Cause: fmt.Errorf("recovered panic: %v", r)}
		}
	}()
	var src decoder.Feeder = rows
	if u != nil {
		u.Reset()
		u.Load(utt)
		src = u
	} else {
		*rows = utt
	}
	r, err := dec.DecodeContext(ctx, src, len(utt))
	if err != nil {
		return r, &DecodeError{Utterance: i, Stage: StageCanceled, Cause: err}
	}
	return r, nil
}

// scoreRows is the decoder.Feeder over an utterance's finished score rows.
type scoreRows [][]float32

func (r *scoreRows) Row(i int, _ func() []int32) []float32 { return (*r)[i] }
