package pool

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/bias"
	"repro/internal/decoder"
)

// wordLookup maps the fixture's numeric word IDs (rendered as decimal
// strings) back to IDs — the pool-test stand-in for a lexicon's word table.
func wordLookup(word string) (int32, bool) {
	v, err := strconv.Atoi(word)
	if err != nil || v < 0 {
		return 0, false
	}
	return int32(v), true
}

// tenantMachine compiles a bias machine from utterance utt's reference
// words, one single-word phrase per word.
func tenantMachine(t testing.TB, f *poolFixture, utt int, bonus float32) *bias.Machine {
	t.Helper()
	var phrases []string
	for _, w := range f.tk.Test[utt%len(f.tk.Test)].Words {
		phrases = append(phrases, strconv.Itoa(int(w)))
	}
	m, err := bias.Compile(phrases, bonus, wordLookup)
	if err != nil {
		t.Fatal(err)
	}
	if m.Phrases() == 0 {
		t.Fatal("bias machine compiled with no phrases")
	}
	return m
}

// ---------------------------------------------------------------------------
// Pool integration: the tenant assignment changes search results exactly
// when a machine is installed.

// TestPoolDecodeBiasNilAndTenantOnlyIdentical: zero Options and a
// machine-less assignment both produce results byte-identical to the plain
// preset path.
func TestPoolDecodeBiasNilAndTenantOnlyIdentical(t *testing.T) {
	f := getFixture(t)
	mk := func() *DecodePool {
		p, err := New(f.tk.AM.G, f.tk.LMGraph.G, Config{Workers: 3, Decoder: decoder.Config{PreemptivePruning: true}})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base, err := mk().DecodeContext(context.Background(), f.scores, nil, decoder.Options{})
	if err != nil || base.Failed() != 0 {
		t.Fatalf("baseline: err=%v failed=%d", err, base.Failed())
	}
	ctx := context.Background()

	pNil := mk()
	bNil, err := pNil.DecodeContext(ctx, f.scores, nil, decoder.Options{})
	if err != nil || bNil.Failed() != 0 {
		t.Fatalf("nil tb: err=%v failed=%d", err, bNil.Failed())
	}
	pTen := mk()
	bTen, err := pTen.DecodeContext(ctx, f.scores, nil, decoder.Options{Bias: nil})
	if err != nil || bTen.Failed() != 0 {
		t.Fatalf("tenant-only: err=%v failed=%d", err, bTen.Failed())
	}
	for i := range base.Results {
		for tag, got := range map[string]*decoder.Result{"nil-tb": bNil.Results[i], "tenant-only": bTen.Results[i]} {
			w := base.Results[i]
			if fmt.Sprint(got.Words) != fmt.Sprint(w.Words) || got.Cost != w.Cost || got.ReachedFinal != w.ReachedFinal {
				t.Errorf("%s utt %d diverged from preset path: (%v, %v, %v) != (%v, %v, %v)",
					tag, i, got.Words, got.Cost, got.ReachedFinal, w.Words, w.Cost, w.ReachedFinal)
			}
		}
	}
}

// TestPoolDecodeBiasMatchesSolo: a biased pool batch is byte-identical to a
// solo biased decode, for any worker count, and a follow-up unbiased batch
// on the same pool is byte-identical to the unbiased baseline (workers
// shed the previous batch's tenant state at checkout).
func TestPoolDecodeBiasMatchesSolo(t *testing.T) {
	f := getFixture(t)
	m := tenantMachine(t, f, 0, 1.5)

	solo, err := decoder.NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, decoder.Config{PreemptivePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := solo.SetOptions(decoder.Options{Bias: m}); err != nil {
		t.Fatal(err)
	}
	want := make([]*decoder.Result, len(f.scores))
	for i, sc := range f.scores {
		want[i] = solo.Decode(sc)
	}
	solo.SetOptions(decoder.Options{})
	plain := make([]*decoder.Result, len(f.scores))
	for i, sc := range f.scores {
		plain[i] = solo.Decode(sc)
	}

	p, err := New(f.tk.AM.G, f.tk.LMGraph.G, Config{Workers: 3, Decoder: decoder.Config{PreemptivePruning: true}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.DecodeContext(context.Background(), f.scores, nil, decoder.Options{Bias: m})
	if err != nil || b.Failed() != 0 {
		t.Fatalf("biased batch: err=%v failed=%d", err, b.Failed())
	}
	for i, r := range b.Results {
		w := want[i]
		if fmt.Sprint(r.Words) != fmt.Sprint(w.Words) || r.Cost != w.Cost || r.ReachedFinal != w.ReachedFinal {
			t.Errorf("biased utt %d diverged from solo biased decode", i)
		}
	}
	// Same pool, next batch unbiased: must match the unbiased baseline.
	b2, err := p.DecodeContext(context.Background(), f.scores, nil, decoder.Options{})
	if err != nil || b2.Failed() != 0 {
		t.Fatalf("follow-up batch: err=%v failed=%d", err, b2.Failed())
	}
	for i, r := range b2.Results {
		w := plain[i]
		if fmt.Sprint(r.Words) != fmt.Sprint(w.Words) || r.Cost != w.Cost {
			t.Errorf("follow-up utt %d still biased: worker kept stale tenant state", i)
		}
	}
}
