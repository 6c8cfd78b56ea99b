package pool

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/acoustic"
	"repro/internal/bias"
	"repro/internal/decoder"
	"repro/internal/telemetry"
)

var biasSoak = flag.Duration("bias-soak", 2*time.Second, "wall time for the tenant-churn bias soak (make bias-soak runs 20s)")

// TestSoakBiasTenantChurn is the biased-decoding endurance pass (make
// bias-soak; a 2s slice of it rides in make race): six client goroutines
// hammer one decode pool and a stream of per-tenant decoders with
// Zipf-distributed tenants — each tenant carrying its own bias machine —
// mixed with tenantless traffic, canceled batches and abandoned streams,
// three times as many tenants as workers so every worker keeps changing
// machines. Under the race detector this exercises the cross-thread seams
// the tenant layer added: per-worker SetOptions installs racing batch
// submission, one scorer's pooled window states shared by concurrent
// chunked streams, and metric scrapes racing live decodes. The correctness
// bar never drops: every completed utterance is byte-identical to its
// tenant's solo biased oracle.
func TestSoakBiasTenantChurn(t *testing.T) {
	f := getFixture(t)
	const tenants = 12
	cfg := decoder.Config{PreemptivePruning: true}
	machines := make([]*bias.Machine, tenants)
	oracle := make([][]*decoder.Result, tenants+1) // [tenants] = tenantless
	solo, err := decoder.NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	decodeAll := func() []*decoder.Result {
		res := make([]*decoder.Result, len(f.scores))
		for i, sc := range f.scores {
			res[i] = solo.Decode(sc)
		}
		return res
	}
	for ti := 0; ti < tenants; ti++ {
		machines[ti] = tenantMachine(t, f, ti, 0.5+float32(ti)*0.25)
		if err := solo.SetOptions(decoder.Options{Bias: machines[ti]}); err != nil {
			t.Fatal(err)
		}
		oracle[ti] = decodeAll()
	}
	solo.SetOptions(decoder.Options{})
	oracle[tenants] = decodeAll()

	reg := telemetry.NewRegistry()
	tel := NewTelemetry(reg, nil)
	p, err := New(f.tk.AM.G, f.tk.LMGraph.G, Config{Workers: 4, Decoder: cfg, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}

	check := func(tag string, ti, utt int, res *decoder.Result) {
		w := oracle[ti][utt]
		if res == nil {
			t.Errorf("%s tenant %d utt %d: nil result", tag, ti, utt)
			return
		}
		if fmt.Sprint(res.Words) != fmt.Sprint(w.Words) || res.Cost != w.Cost || res.ReachedFinal != w.ReachedFinal {
			t.Errorf("%s tenant %d utt %d diverged from its solo biased oracle", tag, ti, utt)
		}
	}
	// openStream is the server's /v1/stream setup: a per-connection decoder
	// carrying the tenant's machine, and a chunk scorer on the shared scorer.
	openStream := func(opts decoder.Options) (*decoder.Stream, *acoustic.Utterance) {
		d, err := decoder.NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SetOptions(opts); err != nil {
			t.Fatal(err)
		}
		return d.NewStream(), acoustic.NewUtterance(f.tk.Scorer)
	}

	deadline := time.Now().Add(*biasSoak)
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*104729 + 1))
			zipf := rand.NewZipf(rng, 1.3, 1, tenants-1)
			for time.Now().Before(deadline) {
				utt := rng.Intn(len(f.tk.Test))
				ti := tenants // tenantless
				var opts decoder.Options
				if rng.Intn(4) != 0 {
					ti = int(zipf.Uint64())
					opts.Bias = machines[ti]
				}
				switch rng.Intn(4) {
				case 0: // scrape racing decodes
					_, _ = reg.WriteTo(io.Discard)
				case 1: // chunked biased stream
					s, u := openStream(opts)
					frames := f.tk.Test[utt].Frames
					chunk := 1 + rng.Intn(8)
					for off := 0; off < len(frames); off += chunk {
						for _, row := range u.Score(frames[off:min(off+chunk, len(frames))]) {
							if err := s.Push(row); err != nil {
								t.Errorf("soak stream push: %v", err)
								return
							}
						}
						_ = s.Partial()
					}
					u.Close()
					check("stream", ti, utt, s.Finish())
					done.Add(1)
				case 2: // abandoned stream or canceled batch: liveness only
					if rng.Intn(2) == 0 {
						s, u := openStream(opts)
						for _, row := range u.Score(f.tk.Test[utt].Frames[:1+rng.Intn(5)]) {
							_ = s.Push(row)
						}
						u.Close()
						continue
					}
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					_, _ = p.DecodeContext(ctx, f.scores[utt:utt+1], nil, opts)
				default: // small biased batch
					n := 1 + rng.Intn(3)
					var scores [][][]float32
					var idx []int
					for i := 0; i < n; i++ {
						u := (utt + i) % len(f.tk.Test)
						scores = append(scores, f.tk.Scorer.ScoreUtterance(f.tk.Test[u].Frames))
						idx = append(idx, u)
					}
					b, err := p.DecodeContext(context.Background(), scores, nil, opts)
					if err != nil || b.Failed() != 0 {
						t.Errorf("soak batch: err=%v errors=%v", err, b.Errors)
						return
					}
					for i, r := range b.Results {
						check("batch", ti, idx[i], r)
					}
					done.Add(int64(n))
				}
			}
		}(w)
	}
	wg.Wait()
	if done.Load() == 0 {
		t.Fatal("soak completed no utterances")
	}
	if busy := tel.WorkersBusy.Value(); busy != 0 {
		t.Errorf("pool leaked %v busy workers after tenant churn", busy)
	}
	// Every worker sheds its last tenant: a tenantless batch after the churn
	// is the tenantless oracle.
	b, err := p.DecodeContext(context.Background(), f.scores, nil, decoder.Options{})
	if err != nil || b.Failed() != 0 {
		t.Fatalf("post-soak batch: err=%v failed=%d", err, b.Failed())
	}
	for i, r := range b.Results {
		check("post-soak", tenants, i, r)
	}
	t.Logf("bias soak: %d utterances over %d tenants", done.Load(), tenants)
}
