package pool

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bias"
	"repro/internal/decoder"
)

var biasSoak = flag.Duration("bias-soak", 2*time.Second, "wall time for the tenant-churn bias soak (make bias-soak runs 20s)")

// TestSoakBiasTenantChurn is the biased-decoding endurance pass (make
// bias-soak; a 2s slice of it rides in make race): six client goroutines
// hammer one lane scheduler with Zipf-distributed tenants — each tenant
// carrying its own bias machine — mixed with tenantless traffic and
// mid-flight cancellations, three times as many tenants as lanes so every
// slot keeps changing machines. Under the race detector this exercises the
// cross-thread seams the tenant layer added: per-lane SetBias installs
// racing batch submission, and stats scrapes racing live decodes. The
// correctness bar never drops: every completed utterance is byte-identical
// to its tenant's solo biased oracle.
func TestSoakBiasTenantChurn(t *testing.T) {
	f := getFixture(t)
	const tenants = 12
	machines := make([]*bias.Machine, tenants)
	oracle := make([][]*decoder.Result, tenants+1) // [tenants] = tenantless
	solo, err := decoder.NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, decoder.Config{PreemptivePruning: true})
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
		if err := solo.SetBias(machines[ti]); err != nil {
			t.Fatal(err)
		}
		oracle[ti] = decodeAll()
	}
	solo.ClearBias()
	oracle[tenants] = decodeAll()

	s, err := NewLaneScheduler(f.tk.AM.G, f.tk.LMGraph.G, f.tk.Scorer, LaneConfig{
		Lanes:   4,
		Decoder: decoder.Config{PreemptivePruning: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

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
				var tb *TenantBias
				if rng.Intn(4) != 0 {
					ti = int(zipf.Uint64())
					tb = &TenantBias{Machine: machines[ti]}
				}
				switch rng.Intn(4) {
				case 0: // scrape racing decodes
					_ = s.Stats()
				case 1: // chunked biased stream
					h, err := s.OpenLaneBias(context.Background(), nil, tb)
					if err != nil {
						t.Errorf("soak stream open: %v", err)
						return
					}
					frames := f.tk.Test[utt].Frames
					chunk := 1 + rng.Intn(8)
					for off := 0; off < len(frames); off += chunk {
						end := off + chunk
						if end > len(frames) {
							end = len(frames)
						}
						if err := h.Push(frames[off:end]); err != nil {
							t.Errorf("soak stream push: %v", err)
							return
						}
						_ = h.Partial()
					}
					res, err := h.Finish()
					if err != nil {
						t.Errorf("soak stream finish: %v", err)
						return
					}
					check("stream", ti, utt, res)
					done.Add(1)
				case 2: // canceled biased stream: liveness only
					ctx, cancel := context.WithCancel(context.Background())
					h, err := s.OpenLaneBias(ctx, nil, tb)
					if err != nil {
						cancel()
						continue
					}
					_ = h.Push(f.tk.Test[utt].Frames[:1+rng.Intn(5)])
					if rng.Intn(2) == 0 {
						cancel()
						_, _ = h.Finish()
					} else {
						h.Close()
					}
					cancel()
				default: // small biased batch
					n := 1 + rng.Intn(3)
					var utts [][][]float32
					var idx []int
					for i := 0; i < n; i++ {
						u := (utt + i) % len(f.tk.Test)
						utts = append(utts, f.tk.Test[u].Frames)
						idx = append(idx, u)
					}
					b, err := s.DecodeBiasContext(context.Background(), utts, nil, tb)
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
	if !s.Quiesced() {
		t.Error("scheduler leaked a slot or queue entry after tenant churn")
	}
	if st := s.Stats(); st.Joins != st.Drains {
		t.Errorf("slot leak: joins %d != drains %d", st.Joins, st.Drains)
	}
	t.Logf("bias soak: %d utterances over %d tenants", done.Load(), tenants)
}
