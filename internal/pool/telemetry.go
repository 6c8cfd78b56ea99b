package pool

import (
	"time"

	"repro/internal/decoder"
	"repro/internal/telemetry"
)

// Telemetry is the pool's instrument set: worker utilization, batch
// throughput and per-utterance fault classes. The embedded decoder set is
// shared by every worker, so search-work counters — the offset table's
// unfold_decoder_memo_{hits,misses}_total among them — aggregate across the
// whole pool. A nil *Telemetry disables all of it — the pool then does no
// telemetry work at all.
type Telemetry struct {
	// Decoder is the shared per-worker decoder instrument set.
	Decoder *decoder.Telemetry

	// Batches counts completed Decode calls; Utterances counts utterances
	// dealt to workers (including failed and canceled ones).
	Batches    *telemetry.Counter
	Utterances *telemetry.Counter
	// Panics and Canceled count the batch fault classes (see
	// metrics.Search); rescues and search failures are decoder counters.
	Panics   *telemetry.Counter
	Canceled *telemetry.Counter
	// BatchSeconds is the wall-time distribution of whole batches.
	BatchSeconds *telemetry.Histogram
	// WorkersBusy tracks how many workers are mid-utterance right now;
	// WorkersTotal is the pool size. Utilization = busy/total.
	WorkersBusy  *telemetry.Gauge
	WorkersTotal *telemetry.Gauge
}

// NewTelemetry registers the pool instrument family (and a shared decoder
// instrument set) in reg. The same Telemetry may size any number of pools;
// their counters aggregate. A nil registry yields an inert set.
func NewTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) *Telemetry {
	return &Telemetry{
		Decoder:      decoder.NewTelemetry(reg, tracer),
		Batches:      reg.Counter("unfold_pool_batches_total", "Completed batch decode calls."),
		Utterances:   reg.Counter("unfold_pool_utterances_total", "Utterances dealt to pool workers."),
		Panics:       reg.Counter("unfold_pool_panics_total", "Worker panics converted to typed errors."),
		Canceled:     reg.Counter("unfold_pool_canceled_total", "Utterances cut short or skipped by cancellation."),
		BatchSeconds: reg.Histogram("unfold_pool_batch_seconds", "Wall time per batch decode.", telemetry.ExpBuckets(0.001, 4, 10)),
		WorkersBusy:  reg.Gauge("unfold_pool_workers_busy", "Workers decoding an utterance right now."),
		WorkersTotal: reg.Gauge("unfold_pool_workers", "Pool worker count."),
	}
}

// decoderTelemetry returns the decoder set to thread into worker configs
// (nil when the pool telemetry itself is nil).
func (t *Telemetry) decoderTelemetry() *decoder.Telemetry {
	if t == nil {
		return nil
	}
	return t.Decoder
}

// observePool publishes the worker-count gauge.
func (t *Telemetry) observePool(p *DecodePool) {
	if t == nil {
		return
	}
	t.WorkersTotal.Set(float64(p.Workers()))
}

// recordBatch publishes one completed batch: counts, wall time and fault
// classes.
func (t *Telemetry) recordBatch(utterances int, wall time.Duration, search searchDelta) {
	if t == nil {
		return
	}
	t.Batches.Inc()
	t.Utterances.Add(int64(utterances))
	t.BatchSeconds.Observe(wall.Seconds())
	t.Panics.Add(search.panics)
	t.Canceled.Add(search.canceled)
}

// searchDelta carries the per-batch fault counts into recordBatch.
type searchDelta struct {
	panics, canceled int64
}
