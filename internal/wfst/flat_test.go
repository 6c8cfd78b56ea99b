package wfst

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/semiring"
)

// flatFixture builds a small transducer with every record feature the flat
// layout must carry: multiple finals, an epsilon arc, weight variety, and a
// state with no arcs.
func flatFixture(t *testing.T) *WFST {
	t.Helper()
	b := NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddState()
	}
	b.SetStart(0)
	b.SetFinal(2, 0.25)
	b.SetFinal(3, 0)
	b.AddArc(0, Arc{In: 1, Out: 2, W: 0.5, Next: 1})
	b.AddArc(0, Arc{In: 3, Out: Epsilon, W: 1.5, Next: 2})
	b.AddArc(1, Arc{In: Epsilon, Out: Epsilon, W: 0, Next: 3})
	b.AddArc(3, Arc{In: 2, Out: 2, W: -0.75, Next: 2})
	return b.MustBuild()
}

func flatEncode(t *testing.T, f *WFST) (states, arcs []byte) {
	t.Helper()
	var sb, ab bytes.Buffer
	if err := WriteFlatStates(f, &sb); err != nil {
		t.Fatal(err)
	}
	if err := WriteFlatArcs(f, &ab); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != FlatStatesSize(f) || ab.Len() != FlatArcsSize(f) {
		t.Fatalf("flat sizes %d/%d, want %d/%d", sb.Len(), ab.Len(), FlatStatesSize(f), FlatArcsSize(f))
	}
	return sb.Bytes(), arcsAligned(ab.Bytes())
}

// arcsAligned copies b into a fresh allocation, which Go aligns to at least
// 8 bytes — the test equivalent of a 16-byte-aligned bundle section.
func arcsAligned(b []byte) []byte { return append([]byte(nil), b...) }

func TestFlatRoundTrip(t *testing.T) {
	f := flatFixture(t)
	f.SortByInput()
	states, arcs := flatEncode(t, f)
	g, err := NewFromFlat(f.Start(), f.NumStates(), states, arcs, f.InSorted())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(f, g) {
		t.Fatal("flat round trip changed the transducer")
	}
	if !g.InSorted() {
		t.Fatal("inSorted flag lost")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if semiring.IsZero(g.Final(2)) || !g.IsFinal(3) {
		t.Fatal("final weights lost")
	}
}

func TestFlatRoundTripEmpty(t *testing.T) {
	f := NewBuilder().MustBuild()
	states, arcs := flatEncode(t, f)
	g, err := NewFromFlat(NoState, 0, states, arcs, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 0 || g.NumArcs() != 0 {
		t.Fatalf("empty round trip: %d states %d arcs", g.NumStates(), g.NumArcs())
	}
}

// TestFlatZeroCopyAliases proves the decode-on-access property: on a
// little-endian host the constructed WFST reads through the caller's
// buffer, so a byte change in the buffer is visible through Arcs without
// any reload.
func TestFlatZeroCopyAliases(t *testing.T) {
	if !hostLittleEndian || !layoutMatchesFlat() {
		t.Skip("zero-copy path needs a little-endian host with matching layout")
	}
	f := flatFixture(t)
	states, arcs := flatEncode(t, f)
	g, err := NewFromFlat(f.Start(), f.NumStates(), states, arcs, false)
	if err != nil {
		t.Fatal(err)
	}
	if !g.external {
		t.Fatal("expected aliasing construction on this host")
	}
	before := g.Arcs(0)[0].In
	arcs[0] ^= 1 // flip the low bit of arc 0's input label in the raw bytes
	if after := g.Arcs(0)[0].In; after == before {
		t.Fatal("WFST did not alias the flat buffer")
	}
}

// TestFlatSortCopiesExternal verifies the copy-on-write guard: sorting a
// transducer that aliases external memory must not write through it.
func TestFlatSortCopiesExternal(t *testing.T) {
	f := flatFixture(t)
	states, arcs := flatEncode(t, f)
	orig := append([]byte(nil), arcs...)
	g, err := NewFromFlat(f.Start(), f.NumStates(), states, arcs, false)
	if err != nil {
		t.Fatal(err)
	}
	g.SortByInput()
	if !bytes.Equal(arcs, orig) {
		t.Fatal("SortByInput mutated the external buffer")
	}
	if _, ok := g.FindArc(0, 3, nil); !ok {
		t.Fatal("sorted copy lost arcs")
	}
}

func TestFlatRejectsCorruptTables(t *testing.T) {
	f := flatFixture(t)
	states, arcs := flatEncode(t, f)

	cases := []struct {
		name string
		run  func() error
	}{
		{"short state table", func() error {
			_, err := NewFromFlat(0, f.NumStates(), states[:len(states)-1], arcs, false)
			return err
		}},
		{"ragged arc table", func() error {
			_, err := NewFromFlat(0, f.NumStates(), states, arcs[:len(arcs)-3], false)
			return err
		}},
		{"non-monotone offsets", func() error {
			bad := append([]byte(nil), states...)
			bad[2*FlatStateBytes] = 0xFF // state 2's arcBegin jumps past the sentinel
			_, err := NewFromFlat(0, f.NumStates(), bad, arcs, false)
			return err
		}},
		{"sentinel mismatch", func() error {
			_, err := NewFromFlat(0, f.NumStates(), states, append(arcsAligned(arcs), make([]byte, FlatArcBytes)...), false)
			return err
		}},
		{"start out of range", func() error {
			_, err := NewFromFlat(StateID(f.NumStates()), f.NumStates(), states, arcs, false)
			return err
		}},
		{"negative state count", func() error {
			_, err := NewFromFlat(0, -1, nil, nil, false)
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// indexFixture is a graph wide enough to span several bitset words, with
// input-epsilon arcs on a minority of states (every 7th).
func indexFixture(t *testing.T) *WFST {
	t.Helper()
	const n = 300
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddState()
	}
	b.SetStart(0)
	for i := 0; i < n-1; i++ {
		b.AddArc(StateID(i), Arc{In: int32(1 + i%5), Out: int32(i), Next: StateID(i + 1)})
		if i%7 == 3 {
			b.AddArc(StateID(i), Arc{In: Epsilon, Out: Epsilon, Next: StateID(i + 1)})
		}
	}
	return b.MustBuild()
}

// checkIndex asserts the once-per-graph index against the arc table it was
// derived from: bit s of EpsInStates is set iff Arcs(s) holds an arc with
// In == Epsilon.
func checkIndex(t *testing.T, f *WFST) {
	t.Helper()
	bits := f.EpsInStates()
	if want := (f.NumStates() + 63) / 64; len(bits) != want {
		t.Fatalf("bitset has %d words, want %d for %d states", len(bits), want, f.NumStates())
	}
	for s := 0; s < f.NumStates(); s++ {
		has := false
		for _, a := range f.Arcs(StateID(s)) {
			has = has || a.In == Epsilon
		}
		if got := bits[s>>6]>>(s&63)&1 != 0; got != has {
			t.Fatalf("state %d: bit %v, arcs say %v", s, got, has)
		}
	}
}

// TestIndexMatchesArcs covers the builder-built graph, the flat-aliased one
// (whose buffers the build must only read), the empty graph, and a sort
// after the index exists (arcs move within a state, so it stays valid).
func TestIndexMatchesArcs(t *testing.T) {
	f := indexFixture(t)
	checkIndex(t, f)
	checkIndex(t, NewBuilder().MustBuild())

	states, arcs := flatEncode(t, f)
	origStates, origArcs := append([]byte(nil), states...), append([]byte(nil), arcs...)
	g, err := NewFromFlat(f.Start(), f.NumStates(), states, arcs, false)
	if err != nil {
		t.Fatal(err)
	}
	checkIndex(t, g)
	if !bytes.Equal(states, origStates) || !bytes.Equal(arcs, origArcs) {
		t.Fatal("building the index wrote through the flat buffers")
	}
	if first, second := g.EpsInStates(), g.EpsInStates(); &first[0] != &second[0] {
		t.Fatal("EpsInStates rebuilt the bitset on a second call")
	}
	g.SortByInput()
	checkIndex(t, g)
}

// TestIndexConcurrentFirstUse races eight goroutines to the first use of a
// fresh graph's index (pool workers and stream requests construct decoders
// concurrently); under -race this proves the build is published safely, and
// every caller must see the one complete bitset.
func TestIndexConcurrentFirstUse(t *testing.T) {
	f := indexFixture(t)
	states, arcs := flatEncode(t, f)
	g, err := NewFromFlat(f.Start(), f.NumStates(), states, arcs, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, graph := range []*WFST{f, g} {
		const workers = 8
		got := make([][]uint64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got[w] = graph.EpsInStates()
			}(w)
		}
		wg.Wait()
		for w := 1; w < workers; w++ {
			if &got[w][0] != &got[0][0] {
				t.Fatalf("worker %d saw a different index than worker 0", w)
			}
		}
		checkIndex(t, graph)
	}
}
