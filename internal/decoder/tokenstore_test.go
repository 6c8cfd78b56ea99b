package decoder

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/semiring"
)

// TestTokenStoreRelax exercises create/improve/ignore against the retained
// map relax as the oracle.
func TestTokenStoreRelax(t *testing.T) {
	s := newTokenStore()
	m := map[uint64]token{}
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint64, 400)
	for i := range keys {
		keys[i] = rng.Uint64() % 200 // force collisions on the same states
	}
	for i, k := range keys {
		c := semiring.Weight(rng.Float32() * 50)
		lat := int32(i)
		_, gotCreated, gotImproved := s.relax(k, c, lat)
		wantCreated, wantImproved := relax(m, k, c, lat)
		if gotCreated != wantCreated || gotImproved != wantImproved {
			t.Fatalf("relax(%d, %v): store (created=%v improved=%v) vs map (created=%v improved=%v)",
				k, c, gotCreated, gotImproved, wantCreated, wantImproved)
		}
	}
	if s.len() != len(m) {
		t.Fatalf("store has %d entries, map has %d", s.len(), len(m))
	}
	for i, k := range s.keys {
		if s.toks[i] != m[k] {
			t.Fatalf("key %d: store token %+v, map token %+v", k, s.toks[i], m[k])
		}
	}
}

// TestTokenStoreInsertionOrder verifies the iteration-order contract: keys
// appear in first-insertion order, unperturbed by later improvements.
func TestTokenStoreInsertionOrder(t *testing.T) {
	s := newTokenStore()
	order := []uint64{42, 7, 99, 3, 7, 42, 1000}
	for i, k := range order {
		s.relax(k, semiring.Weight(10-i), int32(i))
	}
	want := []uint64{42, 7, 99, 3, 1000}
	if s.len() != len(want) {
		t.Fatalf("len = %d, want %d", s.len(), len(want))
	}
	for i, k := range want {
		if s.keys[i] != k {
			t.Fatalf("keys[%d] = %d, want %d (insertion order violated)", i, s.keys[i], k)
		}
	}
}

// TestTokenStoreGrow pushes far past the initial table size and checks every
// entry remains reachable afterwards.
func TestTokenStoreGrow(t *testing.T) {
	s := newTokenStore()
	const n = 10_000
	for i := 0; i < n; i++ {
		s.relax(uint64(i)*2654435761, semiring.Weight(i), int32(i))
	}
	if s.len() != n {
		t.Fatalf("len = %d, want %d", s.len(), n)
	}
	if len(s.ctrl)&(len(s.ctrl)-1) != 0 {
		t.Fatalf("ctrl size %d is not a power of two", len(s.ctrl))
	}
	for i := 0; i < n; i++ {
		idx, created, _ := s.relax(uint64(i)*2654435761, semiring.Weight(n+i), -1)
		if created {
			t.Fatalf("entry %d lost after growth", i)
		}
		if s.toks[idx].cost != semiring.Weight(i) {
			t.Fatalf("entry %d: cost %v, want %v", i, s.toks[idx].cost, semiring.Weight(i))
		}
	}
}

// TestTokenStoreReset verifies reuse: reset keeps capacity but drops entries.
func TestTokenStoreReset(t *testing.T) {
	s := newTokenStore()
	for i := 0; i < 5000; i++ {
		s.relax(uint64(i), semiring.Weight(i), -1)
	}
	grown := len(s.ctrl)
	s.reset()
	if s.len() != 0 {
		t.Fatalf("len = %d after reset", s.len())
	}
	if len(s.ctrl) != grown {
		t.Fatalf("reset shrank ctrl from %d to %d", grown, len(s.ctrl))
	}
	if _, created, _ := s.relax(3, 1, -1); !created {
		t.Fatal("key 3 still present after reset")
	}
}

// TestTokenStoreCopyFrom checks rescue snapshots: an exact copy that stays
// intact while the original keeps mutating.
func TestTokenStoreCopyFrom(t *testing.T) {
	src := newTokenStore()
	for i := 0; i < 1000; i++ {
		src.relax(uint64(i)*7919, semiring.Weight(i%17), int32(i))
	}
	dst := newTokenStore()
	dst.copyFrom(src)
	for i := 0; i < 1000; i++ {
		src.relax(uint64(i)*7919, -1000, -1) // clobber the original
	}
	if dst.len() != 1000 {
		t.Fatalf("copy has %d entries, want 1000", dst.len())
	}
	for i := 0; i < 1000; i++ {
		idx, created, _ := dst.relax(uint64(i)*7919, semiring.Zero, -1)
		if created {
			t.Fatalf("copy lost key %d", i)
		}
		if want := semiring.Weight(i % 17); dst.toks[idx].cost != want {
			t.Fatalf("copy entry %d mutated: cost %v, want %v", i, dst.toks[idx].cost, want)
		}
	}
}

// TestStoreBeamPruneMatchesMap drives the store beamPrune and the retained
// map beamPrune with identical random frontiers and asserts identical
// survivor sets, thresholds and cut counts — including histogram capping and
// its (cost, key) tiebreak. Every fourth trial is the search_wide shape: up
// to 8 000 tokens against the default cap of 3 000, costs quantised so that
// hundreds of tokens tie on cost and the key decides who survives.
func TestStoreBeamPruneMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sc := getScratch()
	defer putScratch(sc)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		beam := semiring.Weight(1 + rng.Float32()*20)
		maxActive := 0
		if rng.Intn(2) == 0 {
			maxActive = 1 + rng.Intn(n)
		}
		keySpace, quantum := uint64(1000), float32(0)
		if trial%4 == 3 {
			n = 3001 + rng.Intn(5000)
			beam, maxActive = 40, 3000
			keySpace, quantum = 1<<40, 2.5
		}
		s := sc.cur
		s.reset()
		m := map[uint64]token{}
		for i := 0; i < n; i++ {
			k := rng.Uint64() % keySpace
			c := rng.Float32() * 40
			if quantum > 0 {
				c = quantum * float32(int(c/quantum))
			}
			// Duplicate keys take the min, as a real frontier would.
			s.relax(k, semiring.Weight(c), int32(i))
			relax(m, k, semiring.Weight(c), int32(i))
		}
		gotThr, gotCut := sc.beamPrune(s, beam, maxActive)
		wantThr, wantCut := beamPrune(m, beam, maxActive)
		if gotThr != wantThr || gotCut != wantCut {
			t.Fatalf("trial %d: store (thr=%v cut=%d) vs map (thr=%v cut=%d)",
				trial, gotThr, gotCut, wantThr, wantCut)
		}
		if s.len() != len(m) {
			t.Fatalf("trial %d: %d survivors in store, %d in map", trial, s.len(), len(m))
		}
		for i, k := range s.keys {
			mt, ok := m[k]
			if !ok || s.toks[i] != mt {
				t.Fatalf("trial %d: survivor %d mismatch (key %d)", trial, i, k)
			}
		}
	}
}

// TestSelectSmallestMatchesSort is the property test of the histogram cap's
// selection: on every input shape that bends a quickselect (random, already
// sorted, reverse sorted, one cost throughout, costs quantised to four values
// so the key breaks heavy ties) and every k including the edges, ents[:k]
// must be exactly the first k of a full sort under the same order, with the
// k-th at ents[k-1] — the entry beamPrune reads its threshold from.
func TestSelectSmallestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := map[string]func(i, n int) semiring.Weight{
		"random":    func(i, n int) semiring.Weight { return semiring.Weight(rng.Float32() * 100) },
		"sorted":    func(i, n int) semiring.Weight { return semiring.Weight(i) },
		"reverse":   func(i, n int) semiring.Weight { return semiring.Weight(n - i) },
		"equal":     func(i, n int) semiring.Weight { return 7 },
		"quantised": func(i, n int) semiring.Weight { return semiring.Weight(rng.Intn(4)) },
	}
	for name, cost := range shapes {
		for _, n := range []int{1, 2, 3, 11, 12, 13, 14, 100, 1000, 5234} {
			ents := make([]pruneEnt, n)
			for i := range ents {
				// Keys are unique, as in a frontier; ascending with the index
				// keeps "sorted" and "reverse" monotone under (cost, key) too.
				ents[i] = pruneEnt{c: cost(i, n), k: uint64(i)*2 + 1, i: int32(i)}
			}
			want := slices.Clone(ents)
			slices.SortFunc(want, cmpPruneEnt)
			for _, k := range []int{1, n - 1, n, 1 + rng.Intn(n), 1 + rng.Intn(n)} {
				if k < 1 {
					continue
				}
				got := slices.Clone(ents)
				selectSmallest(got, k)
				if got[k-1] != want[k-1] {
					t.Fatalf("%s n=%d k=%d: k-th is %+v, sort says %+v", name, n, k, got[k-1], want[k-1])
				}
				slices.SortFunc(got[:k], cmpPruneEnt)
				if !slices.Equal(got[:k], want[:k]) {
					t.Fatalf("%s n=%d k=%d: selected set differs from the sorted prefix", name, n, k)
				}
				slices.SortFunc(got[k:], cmpPruneEnt)
				if !slices.Equal(got[k:], want[k:]) {
					t.Fatalf("%s n=%d k=%d: selection lost or duplicated entries", name, n, k)
				}
			}
		}
	}
}

// TestStoreBeamPruneNaN pins the non-finite parity property: a NaN-cost
// token fails `cost > thr` just as it does in the map implementation, so
// both keep it. Under the histogram cap a NaN compares equal to everything,
// which leaves the choice of survivors to the algorithm (and, in the map, to
// iteration order) — but the selection must still terminate in bounds and
// cut exactly down to the cap, as the map does.
func TestStoreBeamPruneNaN(t *testing.T) {
	nan := semiring.Weight(math.NaN())
	sc := getScratch()
	defer putScratch(sc)
	s := sc.cur
	s.reset()
	m := map[uint64]token{}
	s.relax(1, 0, -1)
	relax(m, 1, 0, -1)
	s.relax(2, nan, -1)
	relax(m, 2, nan, -1)
	s.relax(3, 100, -1)
	relax(m, 3, 100, -1)
	_, gotCut := sc.beamPrune(s, 10, 0)
	_, wantCut := beamPrune(m, 10, 0)
	if gotCut != wantCut || s.len() != len(m) {
		t.Fatalf("NaN parity broken: store cut=%d len=%d, map cut=%d len=%d",
			gotCut, s.len(), wantCut, len(m))
	}
	if s.len() != 2 {
		t.Fatalf("expected NaN token kept alongside best (len=2), got %d", s.len())
	}

	rng := rand.New(rand.NewSource(23))
	for _, nanEvery := range []int{1, 2, 10, 1000} {
		const n, maxActive = 6000, 3000
		s.reset()
		m = map[uint64]token{}
		for i := 0; i < n; i++ {
			c := semiring.Weight(rng.Float32() * 30)
			if i%nanEvery == 0 {
				c = nan
			}
			s.relax(uint64(i), c, -1)
			relax(m, uint64(i), c, -1)
		}
		_, gotCut := sc.beamPrune(s, 40, maxActive)
		_, wantCut := beamPrune(m, 40, maxActive)
		if gotCut != wantCut || s.len() != len(m) || s.len() != maxActive {
			t.Fatalf("NaN every %d under the cap: store cut=%d len=%d, map cut=%d len=%d, cap %d",
				nanEvery, gotCut, s.len(), wantCut, len(m), maxActive)
		}
		for i, k := range s.keys {
			if idx, created, _ := s.relax(k, semiring.Zero, -1); created || int(idx) != i {
				t.Fatalf("NaN every %d: probe table lost survivor %d (key %d)", nanEvery, i, k)
			}
		}
	}
}
