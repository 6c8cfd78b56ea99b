package pool

import (
	"context"
	"strings"
	"testing"

	"repro/internal/decoder"
	"repro/internal/telemetry"
)

// TestPoolTelemetry runs two instrumented batches and checks the pool
// instrument family end to end: batch/utterance counters, worker gauges,
// and the shared decoder counters — the offset table's hit/miss pair among
// them — aggregated across workers.
func TestPoolTelemetry(t *testing.T) {
	f := getFixture(t)
	reg := telemetry.NewRegistry()
	tel := NewTelemetry(reg, telemetry.NewTracer(16))
	p, err := New(f.tk.AM.G, f.tk.LMGraph.G, Config{Workers: 3, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := p.Decode(f.scores)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := p.Decode(f.scores)
	if err != nil {
		t.Fatal(err)
	}

	if got := tel.Batches.Value(); got != 2 {
		t.Errorf("batches counter = %d, want 2", got)
	}
	if got := tel.Utterances.Value(); got != int64(2*len(f.scores)) {
		t.Errorf("utterances counter = %d, want %d", got, 2*len(f.scores))
	}
	if got := tel.WorkersTotal.Value(); got != 3 {
		t.Errorf("workers gauge = %g, want 3", got)
	}
	if got := tel.WorkersBusy.Value(); got != 0 {
		t.Errorf("busy gauge after quiesce = %g, want 0", got)
	}
	if got := tel.BatchSeconds.Count(); got != 2 {
		t.Errorf("batch seconds observations = %d, want 2", got)
	}

	// Decoder counters are shared across workers and must sum to the batch
	// aggregates.
	wantFrames := int64(b1.Decoder.Frames + b2.Decoder.Frames)
	if got := tel.Decoder.Frames.Value(); got != wantFrames {
		t.Errorf("decoder frames = %d, want %d", got, wantFrames)
	}
	if got := tel.Decoder.Decodes.Value(); got != int64(2*len(f.scores)) {
		t.Errorf("decoder decodes = %d, want %d", got, 2*len(f.scores))
	}

	// The offset table is counted by the decoder's own memo pair, which the
	// batch throughput is fed from.
	if got, want := tel.Decoder.MemoHits.Value(), b1.Throughput.CacheHits+b2.Throughput.CacheHits; got != want {
		t.Errorf("memo hit counter = %d, want %d", got, want)
	}
	if got, want := tel.Decoder.MemoHits.Value()+tel.Decoder.MemoMisses.Value(), b1.Throughput.CacheLookups+b2.Throughput.CacheLookups; got != want || got == 0 {
		t.Errorf("memo lookups = %d, want %d (nonzero)", got, want)
	}

	var sb strings.Builder
	reg.WriteTo(&sb)
	for _, name := range []string{
		"unfold_pool_batches_total 2",
		"unfold_pool_workers 3",
		"unfold_decoder_memo_hits_total",
		"unfold_decoder_frames_total",
	} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("exposition missing %q", name)
		}
	}
}

// TestPoolTelemetryCancellation checks the canceled-utterance counter: a
// pre-canceled context marks every utterance canceled and telemetry must
// agree with Batch.Search.
func TestPoolTelemetryCancellation(t *testing.T) {
	f := getFixture(t)
	tel := NewTelemetry(telemetry.NewRegistry(), nil)
	p, err := New(f.tk.AM.G, f.tk.LMGraph.G, Config{Workers: 2, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, err := p.DecodeContext(ctx, f.scores, nil, decoder.Options{})
	if err == nil {
		t.Fatal("expected ctx error")
	}
	if got := tel.Canceled.Value(); got != b.Search.Canceled {
		t.Errorf("canceled counter = %d, want %d", got, b.Search.Canceled)
	}
	if got := tel.Batches.Value(); got != 1 {
		t.Errorf("batches counter = %d, want 1 (canceled batches still record)", got)
	}
}

// TestPoolTelemetryNil pins that a nil-telemetry pool works and publishes
// nothing, and that results are identical to an instrumented pool — the
// observability layer must never change transcripts.
func TestPoolTelemetryNil(t *testing.T) {
	f := getFixture(t)
	plain, err := New(f.tk.AM.G, f.tk.LMGraph.G, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	instr, err := New(f.tk.AM.G, f.tk.LMGraph.G, Config{Workers: 2, Telemetry: NewTelemetry(telemetry.NewRegistry(), nil)})
	if err != nil {
		t.Fatal(err)
	}
	a, err := plain.Decode(f.scores)
	if err != nil {
		t.Fatal(err)
	}
	b, err := instr.Decode(f.scores)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		if a.Results[i].Cost != b.Results[i].Cost {
			t.Fatalf("utt %d: telemetry changed the decode cost", i)
		}
		aw, bw := a.Results[i].Words, b.Results[i].Words
		if len(aw) != len(bw) {
			t.Fatalf("utt %d: word count differs", i)
		}
		for j := range aw {
			if aw[j] != bw[j] {
				t.Fatalf("utt %d word %d differs", i, j)
			}
		}
	}

	var nilTel *Telemetry
	nilTel.observePool(plain)
	nilTel.recordBatch(1, 0, searchDelta{})
	if nilTel.decoderTelemetry() != nil {
		t.Fatal("nil pool telemetry must thread a nil decoder telemetry")
	}
}
