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

// TestTokenStoreReset verifies reuse: reset drops the entries, keeps the
// backing arrays, and cuts the probe table down to a prefix sized for the
// entries the caller expects, which a refill then grows back into without
// allocating.
func TestTokenStoreReset(t *testing.T) {
	s := newTokenStore()
	fill := func() {
		for i := 0; i < 5000; i++ {
			s.relax(uint64(i), semiring.Weight(i), -1)
		}
	}
	fill()
	grown, backing := len(s.ctrl), cap(s.ctrl)
	s.reset(0)
	if s.len() != 0 {
		t.Fatalf("len = %d after reset", s.len())
	}
	if len(s.ctrl) != minTableSize || cap(s.ctrl) != backing {
		t.Fatalf("reset(0) left a table of %d slots over %d, want %d over %d", len(s.ctrl), cap(s.ctrl), minTableSize, backing)
	}
	if _, created, _ := s.relax(3, 1, -1); !created {
		t.Fatal("key 3 still present after reset")
	}
	for _, tc := range []struct{ expect, want int }{
		{1, minTableSize}, {64, minTableSize}, {65, 512}, {1000, 4096}, {1024, 4096}, {1025, 8192},
	} {
		if s.reset(tc.expect); len(s.ctrl) != tc.want || cap(s.ctrl) != backing {
			t.Errorf("reset(%d): table of %d slots over %d, want %d over %d", tc.expect, len(s.ctrl), cap(s.ctrl), tc.want, backing)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { s.reset(0); fill() }); allocs != 0 {
		t.Errorf("refilling a reset store to its old size allocates %.1f objects, want 0", allocs)
	}
	if len(s.ctrl) != grown || cap(s.ctrl) != backing {
		t.Errorf("refill ended on a table of %d slots over %d, want %d over %d", len(s.ctrl), cap(s.ctrl), grown, backing)
	}
	// Only an expectation the backing array cannot hold replaces it.
	if s.reset(backing/4 + 1); len(s.ctrl) != 2*backing {
		t.Errorf("reset(%d): table of %d slots, want %d", backing/4+1, len(s.ctrl), 2*backing)
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
// hundreds of tokens tie on cost and the key decides who survives. Two more
// trials in eight pin the cap to the ends of its cost histogram: a cap of one
// lands in the first bucket, a cap one short of everything within the beam
// lands in the last occupied one.
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
		s.reset(0)
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
		switch trial % 8 {
		case 1:
			maxActive = 1
		case 5:
			within := 0
			for _, tok := range s.toks {
				if !(tok.cost > s.best+beam) {
					within++
				}
			}
			maxActive = max(1, within-1)
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
	s.reset(0)
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
		s.reset(0)
		m = map[uint64]token{}
		for i := 0; i < n; i++ {
			c := semiring.Weight(rng.Float32() * 30)
			if i%nanEvery == 0 {
				c = nan
			}
			s.relax(uint64(i), c, -1)
			relax(m, uint64(i), c, -1)
		}
		// A snapshot taken before the prune keeps a table that finds every
		// entry, whatever its cost.
		sc.snap.copyFrom(s)
		for i, k := range sc.snap.keys {
			if idx, created, _ := sc.snap.relax(k, semiring.Zero, -1); created || int(idx) != i {
				t.Fatalf("NaN every %d: snapshot's probe table lost entry %d (key %d)", nanEvery, i, k)
			}
		}
		_, gotCut := sc.beamPrune(s, 40, maxActive)
		_, wantCut := beamPrune(m, 40, maxActive)
		if gotCut != wantCut || s.len() != len(m) || s.len() != maxActive {
			t.Fatalf("NaN every %d under the cap: store cut=%d len=%d, map cut=%d len=%d, cap %d",
				nanEvery, gotCut, s.len(), wantCut, len(m), maxActive)
		}
		// Keys went in ascending, so insertion order is ascending order.
		if !slices.IsSorted(s.keys) {
			t.Fatalf("NaN every %d under the cap: survivors left insertion order", nanEvery)
		}
	}
}

// TestTokenStoreBestTracksScan holds the minimum relax maintains against the
// scan it replaced, after random create/improve/ignore sequences that include
// NaN and both infinities, and across copyFrom and reset.
func TestTokenStoreBestTracksScan(t *testing.T) {
	scan := func(s *tokenStore) semiring.Weight {
		best := semiring.Zero
		for _, tok := range s.toks {
			if tok.cost < best {
				best = tok.cost
			}
		}
		return best
	}
	check := func(what string, s *tokenStore) {
		t.Helper()
		if want := scan(s); s.best != want {
			t.Fatalf("%s: tracked best %v, scan %v over %d entries", what, s.best, want, s.len())
		}
	}
	inf := semiring.Weight(math.Inf(1))
	special := []semiring.Weight{semiring.Weight(math.NaN()), inf, -inf}
	rng := rand.New(rand.NewSource(29))
	s, snap := newTokenStore(), newTokenStore()
	for trial := 0; trial < 200; trial++ {
		s.reset(rng.Intn(50))
		check("reset", s)
		// The first trials stay finite; later ones draw a special value once
		// in 2 to once in 40 relaxations.
		specialEvery := 0
		if trial >= 20 {
			specialEvery = 2 + rng.Intn(39)
		}
		for i, n := 0, 1+rng.Intn(400); i < n; i++ {
			c := semiring.Weight(rng.Float32()*200 - 100)
			if specialEvery > 0 && rng.Intn(specialEvery) == 0 {
				c = special[rng.Intn(len(special))]
			}
			s.relax(rng.Uint64()%64, c, int32(i))
			check("relax", s)
		}
		snap.copyFrom(s)
		check("copyFrom", snap)
		snap.relax(1000, -1e6, -1)
		check("relax on the copy", snap)
		check("original after the copy moved", s)
	}
}

// pruneOracle is beamPrune by the book: scan for the minimum, drop what is
// strictly worse than minimum+beam, and under the cap keep the first
// maxActive of a full sort under the (cost, key) order. Survivors come back
// in insertion order.
func pruneOracle(keys []uint64, toks []token, beam semiring.Weight, maxActive int) ([]uint64, []token, semiring.Weight, int64) {
	best := semiring.Zero
	for _, tok := range toks {
		if tok.cost < best {
			best = tok.cost
		}
	}
	thr := best + beam
	var ents []pruneEnt
	for i, tok := range toks {
		if !(tok.cost > thr) {
			ents = append(ents, pruneEnt{tok.cost, keys[i], int32(i)})
		}
	}
	if maxActive > 0 && len(ents) > maxActive {
		slices.SortFunc(ents, cmpPruneEnt)
		ents = ents[:maxActive]
		thr = ents[maxActive-1].c
		slices.SortFunc(ents, func(a, b pruneEnt) int { return int(a.i - b.i) })
	}
	var outK []uint64
	var outT []token
	for _, e := range ents {
		outK, outT = append(outK, e.k), append(outT, toks[e.i])
	}
	return outK, outT, thr, int64(len(keys) - len(ents))
}

// TestStoreCapMatchesSortOracle is the property test of the bucketed cap: on
// every cost shape that bends a histogram (spread over the beam, one cost
// throughout so one bucket holds everything, four values with the key
// breaking heavy ties, costs sitting exactly on bucket edges including the
// threshold itself) and every beam that bends the bucket mapping (zero, +Inf,
// ordinary), for caps from one to one short of everything, the survivors,
// their order, the threshold and the cut count are those of a full sort.
func TestStoreCapMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	inf := semiring.Weight(math.Inf(1))
	shapes := []struct {
		name string
		beam semiring.Weight
		cost func(i int) semiring.Weight
	}{
		{"random", 40, func(int) semiring.Weight { return semiring.Weight(rng.Float32() * 50) }},
		{"random-offset", 40, func(int) semiring.Weight { return semiring.Weight(1234.5 + rng.Float32()*50) }},
		{"equal", 40, func(int) semiring.Weight { return 7 }},
		{"quantised", 40, func(int) semiring.Weight { return semiring.Weight(10 * rng.Intn(4)) }},
		// beam/capBuckets is 1/16 exactly and entry 0 pins the minimum to 0,
		// so j/16 is the lower edge of bucket j and j == capBuckets is the
		// threshold.
		{"bucket-edges", 64, func(i int) semiring.Weight { return semiring.Weight(min(i, 1)*rng.Intn(capBuckets+1)) / 16 }},
		{"edge-pairs", 64, func(i int) semiring.Weight {
			x := float32(min(i, 1)*(1+rng.Intn(capBuckets-1))) / 16
			if i&1 == 1 {
				x = math.Nextafter32(x, 0) // the last cost of the bucket below
			}
			return semiring.Weight(x)
		}},
		{"zero-beam", 0, func(int) semiring.Weight { return 3 }},
		{"inf-beam", inf, func(int) semiring.Weight { return semiring.Weight(rng.Float32() * 1e6) }},
	}
	sc := getScratch()
	defer putScratch(sc)
	s := sc.cur
	for _, sh := range shapes {
		for _, n := range []int{2, 17, 300, 5234} {
			s.reset(0)
			for i := 0; i < n; i++ {
				s.relax(rng.Uint64(), sh.cost(i), int32(i))
			}
			sc.snap.copyFrom(s)
			within, _, _, _ := pruneOracle(s.keys, s.toks, sh.beam, 0)
			if sh.name != "random" && sh.name != "random-offset" && len(within) != s.len() {
				t.Fatalf("%s n=%d: only %d of %d entries are within the beam; the shape is not testing the cap", sh.name, n, len(within), s.len())
			}
			for _, maxActive := range []int{1, 2, len(within) / 2, len(within) - 1, len(within), 1 + rng.Intn(len(within))} {
				if maxActive < 1 {
					continue
				}
				s.copyFrom(sc.snap)
				wantK, wantT, wantThr, wantCut := pruneOracle(s.keys, s.toks, sh.beam, maxActive)
				gotThr, gotCut := sc.beamPrune(s, sh.beam, maxActive)
				if gotThr != wantThr || gotCut != wantCut {
					t.Fatalf("%s n=%d cap=%d: store (thr=%v cut=%d) vs sort (thr=%v cut=%d)",
						sh.name, n, maxActive, gotThr, gotCut, wantThr, wantCut)
				}
				if !slices.Equal(s.keys, wantK) || !slices.Equal(s.toks, wantT) {
					t.Fatalf("%s n=%d cap=%d: survivors or their order differ from the sorted prefix (%d vs %d kept)",
						sh.name, n, maxActive, s.len(), len(wantK))
				}
			}
		}
	}
}

// TestStorePrunedRelaxPanics pins the iterate-only contract of a pruned
// store: beamPrune no longer rebuilds the probe table, so a relax before the
// next reset or copyFrom must fail loudly instead of inserting a key the
// stale table cannot see as a duplicate.
func TestStorePrunedRelaxPanics(t *testing.T) {
	sc := getScratch()
	defer putScratch(sc)
	s := sc.cur
	for _, cut := range []bool{true, false} {
		s.reset(0)
		s.relax(1, 0, -1)
		s.relax(2, 5, -1)
		s.relax(3, 100, -1)
		beam := semiring.Weight(1000)
		if cut {
			beam = 10
		}
		sc.beamPrune(s, beam, 0)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("relax on a pruned store (cut=%v) did not panic", cut)
				}
			}()
			s.relax(1, 0, -1)
		}()
		if s.reset(0); s.len() != 0 {
			t.Fatalf("reset after the prune left %d entries", s.len())
		}
		if _, created, _ := s.relax(1, 0, -1); !created {
			t.Error("reset did not restore a working table")
		}
	}
}

// TestStoreRescueRoundTrip walks the rescue path's store traffic: snapshot,
// prune the original, restore it from the snapshot, relax. The restored
// store must find every entry again, whether the snapshot's table is
// smaller than, larger than, or the size of the one it overwrites.
func TestStoreRescueRoundTrip(t *testing.T) {
	sc := getScratch()
	defer putScratch(sc)
	for _, tc := range []struct{ curPrefill, snapPrefill, n int }{
		{0, 0, 1000},     // same size
		{0, 20000, 1000}, // snapshot store has the larger backing array
		{20000, 0, 1000}, // the pruned store has
		{0, 0, 3},
	} {
		cur, snap := newTokenStore(), newTokenStore()
		for i := 0; i < tc.curPrefill; i++ {
			cur.relax(uint64(i), 0, -1)
		}
		for i := 0; i < tc.snapPrefill; i++ {
			snap.relax(uint64(i), 0, -1)
		}
		cur.reset(tc.n)
		for i := 0; i < tc.n; i++ {
			cur.relax(uint64(i)*7919, semiring.Weight(i%100), int32(i))
		}
		table := len(cur.ctrl)
		snap.copyFrom(cur)
		sc.beamPrune(cur, 1, 0)
		if cur.len() >= tc.n {
			t.Fatalf("%+v: the prune cut nothing", tc)
		}
		cur.copyFrom(snap)
		if cur.len() != tc.n || len(cur.ctrl) != table || cur.best != snap.best {
			t.Fatalf("%+v: restored %d entries over %d slots (best %v), want %d over %d (best %v)",
				tc, cur.len(), len(cur.ctrl), cur.best, tc.n, table, snap.best)
		}
		for i := 0; i < tc.n; i++ {
			idx, created, _ := cur.relax(uint64(i)*7919, semiring.Zero, -1)
			if created || int(idx) != i {
				t.Fatalf("%+v: restored table lost entry %d", tc, i)
			}
		}
		if _, created, _ := cur.relax(1<<60, 1, -1); !created || cur.len() != tc.n+1 {
			t.Fatalf("%+v: restored store does not take a new key", tc)
		}
	}
}
