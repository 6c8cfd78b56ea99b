package server

import (
	"math"
	"strings"
	"testing"

	"repro/internal/acoustic"
	"repro/internal/decoder"
)

// TestStreamDecoderRecycled: /v1/stream takes its decoder from the model's
// free list. A decoder recycled after a biased, degraded stream decodes
// every later stream exactly as a fresh decoder does — words, word ends,
// cost bits, finality and every search count but the offset table's, which
// is the point of recycling (a warm table hits where a cold one misses).
// The preset and the tenant's bias machine do not carry over.
func TestStreamDecoderRecycled(t *testing.T) {
	sys := getSystem(t)
	s := New(Config{Workers: 1})
	if err := s.Load(sys); err != nil {
		t.Fatal(err)
	}
	m, release, _, _ := s.models.acquire(DefaultModel)
	defer release()
	cfg := s.cfg.Decoder
	run := func(d *decoder.OnTheFly, frames [][]float32) *decoder.Result {
		st := d.NewStream()
		defer st.Close()
		u := acoustic.NewUtterance(m.rec.Scorer)
		defer u.Close()
		for i := 0; i < len(frames); i += 5 {
			chunk := frames[i:min(i+5, len(frames))]
			u.Load(chunk)
			st.Feed(u, len(chunk))
		}
		return st.Finish()
	}
	searchWork := func(r *decoder.Result) decoder.Stats {
		st := r.Stats
		st.MemoHits, st.MemoMisses, st.LMProbes = 0, 0, 0
		return st
	}
	test := sys.TestSet()

	d, err := m.takeDecoder(cfg, decoder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts, err := s.decodeOptions(m, &biasRequest{Tenant: "recycle", Phrases: []string{strings.Join(sys.Words(test[0].Words), " ")}})
	if err != nil || opts.Bias == nil {
		t.Fatalf("bias: %v", err)
	}
	preset := cfg.DegradedPreset(3)
	opts.Preset = &preset
	if err := d.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	biased := run(d, test[0].Frames)
	m.putDecoder(d, false)

	recycled, err := m.takeDecoder(cfg, decoder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if recycled != d {
		t.Fatal("the free list built a new decoder instead of handing back the idle one")
	}
	defer m.putDecoder(recycled, false)
	fresh, err := m.rec.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range test {
		got, want := run(recycled, u.Frames), run(fresh, u.Frames)
		if i == 0 && searchWork(biased) == searchWork(want) {
			t.Fatal("the biased, degraded stream searched like an unbiased full one: the test sets nothing up")
		}
		if math.Float32bits(float32(got.Cost)) != math.Float32bits(float32(want.Cost)) ||
			got.ReachedFinal != want.ReachedFinal ||
			strings.Join(sys.Words(got.Words), " ") != strings.Join(sys.Words(want.Words), " ") ||
			len(got.WordEnds) != len(want.WordEnds) || searchWork(got) != searchWork(want) {
			t.Errorf("utt %d: recycled decoder %v at %v cost %v %+v, fresh %v at %v cost %v %+v", i,
				got.Words, got.WordEnds, got.Cost, searchWork(got), want.Words, want.WordEnds, want.Cost, searchWork(want))
		}
		for j := range got.WordEnds {
			if got.WordEnds[j] != want.WordEnds[j] {
				t.Errorf("utt %d word %d ends at frame %d, fresh %d", i, j, got.WordEnds[j], want.WordEnds[j])
			}
		}
	}
}
