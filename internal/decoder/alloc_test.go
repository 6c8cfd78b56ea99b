package decoder

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/acoustic"
	"repro/internal/bias"
	"repro/internal/semiring"
	"repro/internal/wfst"
)

// These tests are the allocation-regression gates for the zero-allocation
// frontier: testing.AllocsPerRun over the hot-path entry points, with limits
// tight enough that reintroducing a per-frame map, sort, or queue allocation
// fails the suite. They run as part of `go test` (and therefore `make
// check`); the numbers themselves are tracked in docs/BENCHMARKS.md.

// decodeInPlace replays a full utterance through stepFrame/epsClosure using
// one locally-owned scratch set — the steady-state shape of the hot path,
// with the pool and Result construction factored out.
func decodeInPlace(d *OnTheFly, scores [][]float32, sc *scratch) {
	sc.feed.rows = scores
	feedInPlace(d, &sc.feed, len(scores), sc)
}

// feedInPlace is decodeInPlace over n frames of a Feeder.
func feedInPlace(d *OnTheFly, src Feeder, n int, sc *scratch) {
	cfg := d.cfg
	sc.lat.reset()
	st := Stats{}
	cur, next := sc.cur, sc.next
	cur.reset(0)
	cur.relax(d.startKey(), semiring.One, -1)
	d.epsClosure(cur, &sc.lat, &st, semiring.Zero, -1, sc)
	for f := 0; f < n; f++ {
		d.stepFrame(cur, next, src, f, cfg.Beam, cfg.MaxActive, &sc.lat, &st, f, sc)
		if next.len() == 0 {
			return
		}
		cur, next = next, cur
	}
}

// TestAllocsStepFrame gates the per-frame core: after one warmup utterance
// (which grows every buffer to its high-water mark), replaying the same
// utterance through stepFrame and epsClosure must allocate nothing at all —
// on-the-fly and over the fixture's offline composition alike.
func TestAllocsStepFrame(t *testing.T) {
	scores := getFixture(t, 42).scores[0]
	for _, in := range allocDecoders(t) {
		sc := getScratch()
		decodeInPlace(in.d, scores, sc) // warm buffers and the offset memo

		allocs := testing.AllocsPerRun(10, func() {
			decodeInPlace(in.d, scores, sc)
		})
		putScratch(sc)
		if allocs > 0 {
			t.Errorf("%s: steady-state stepFrame loop allocates %.1f objects per utterance, want 0", in.name, allocs)
		}
	}
}

// allocDecoders returns the two searches the per-frame gates hold, both with
// preemptive pruning on: on-the-fly over the seed-42 fixture's AM and LM, and
// the fully-composed baseline over their offline composition.
func allocDecoders(t *testing.T) []namedDecoder {
	t.Helper()
	f := getFixture(t, 42)
	cfg := Config{PreemptivePruning: true}
	otf, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	composed, err := NewComposed(f.composed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []namedDecoder{{"on-the-fly", otf}, {"composed", composed}}
}

type namedDecoder struct {
	name string
	d    *OnTheFly
}

// TestAllocsBiasedStepFrame extends the per-frame gate to the three-way
// composition: with a real (non-empty) bias machine installed, the warm
// stepFrame/epsClosure loop must still allocate nothing — Advance walks the
// compiled machine with no per-word heap work, so biased decoding adds
// exactly 0 allocs/frame over the two-layer path.
func TestAllocsBiasedStepFrame(t *testing.T) {
	f := getFixture(t, 42)
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	var phrases []string
	for _, w := range f.tk.Test[0].Words {
		phrases = append(phrases, strconv.Itoa(int(w)))
	}
	m, err := bias.Compile(phrases, 2, numLookup)
	if err != nil {
		t.Fatal(err)
	}
	if m.Phrases() == 0 || m.NumStates() < 2 {
		t.Fatalf("bias machine trivial: %d phrases, %d states", m.Phrases(), m.NumStates())
	}
	if err := d.SetOptions(Options{Bias: m}); err != nil {
		t.Fatal(err)
	}
	sc := getScratch()
	defer putScratch(sc)
	decodeInPlace(d, f.scores[0], sc) // warm buffers and the offset memo

	allocs := testing.AllocsPerRun(10, func() {
		decodeInPlace(d, f.scores[0], sc)
	})
	if allocs > 0 {
		t.Errorf("steady-state biased stepFrame loop allocates %.1f objects per utterance, want 0", allocs)
	}
}

// TestAllocsOnDemandStep extends the per-frame gate to on-demand scoring:
// with an acoustic.Utterance feeding the GMM's rows as the search reads
// them, the warm loop — need collection, per-senone and eager-block
// scoring, search — allocates nothing.
func TestAllocsOnDemandStep(t *testing.T) {
	f := getFixture(t, 42)
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	frames := f.tk.Test[0].Frames
	u := acoustic.NewUtterance(f.tk.Scorer)
	defer u.Close()
	sc := getScratch()
	defer putScratch(sc)
	run := func() {
		u.Reset()
		u.Load(frames)
		feedInPlace(d, u, len(frames), sc)
	}
	run() // warm buffers, the offset memo and the Utterance's rows

	allocs := testing.AllocsPerRun(10, run)
	if allocs > 0 {
		t.Errorf("steady-state on-demand loop allocates %.1f objects per utterance, want 0", allocs)
	}
}

// TestAllocsStreamCycle gates the stream lifecycle the server runs per
// /v1/stream request on a recycled decoder: NewStream, chunks loaded into
// one acoustic.Utterance and searched with Feed, Finish, Close. Close hands
// the scratch set back warm, so the cycle allocates a handful of objects
// (the Stream, the Result and its backtrace, which grows by doubling with
// the word count) and nothing per frame: at most 8 over 100 frames and
// over 200.
func TestAllocsStreamCycle(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under -race")
	}
	f := getFixture(t, 42)
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	frames := f.tk.Test[0].Frames
	doubled := append(append([][]float32(nil), frames...), frames...)
	u := acoustic.NewUtterance(f.tk.Scorer)
	defer u.Close()
	cycle := func(frames [][]float32) func() {
		return func() {
			s := d.NewStream()
			u.Reset()
			for i := 0; i < len(frames); i += 4 {
				chunk := frames[i:min(i+4, len(frames))]
				u.Load(chunk)
				s.Feed(u, len(chunk))
			}
			s.Finish()
			s.Close()
		}
	}
	cycle(doubled)() // warm the scratch set to the longer utterance
	single := testing.AllocsPerRun(10, cycle(frames))
	double := testing.AllocsPerRun(10, cycle(doubled))
	t.Logf("stream cycle: %.0f objects over %d frames, %.0f over %d", single, len(frames), double, len(doubled))
	if single > 8 || double > 8 {
		t.Errorf("stream cycle allocates %.0f objects (%d frames) and %.0f (%d frames): want <= 8 each",
			single, len(frames), double, len(doubled))
	}
}

// TestAllocsEpsClosure gates the closure in isolation: relaxing a warm
// frontier's epsilon arcs must not allocate.
func TestAllocsEpsClosure(t *testing.T) {
	f := getFixture(t, 42)
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc := getScratch()
	defer putScratch(sc)
	st := Stats{}
	seed := func() {
		sc.lat.reset()
		sc.cur.reset(0)
		sc.cur.relax(otfKey(d.am.Start(), d.lm.Start()), semiring.One, -1)
	}
	seed()
	d.epsClosure(sc.cur, &sc.lat, &st, semiring.Zero, -1, sc) // warm

	allocs := testing.AllocsPerRun(10, func() {
		seed()
		d.epsClosure(sc.cur, &sc.lat, &st, semiring.Zero, -1, sc)
	})
	if allocs > 0 {
		t.Errorf("steady-state epsClosure allocates %.1f objects per run, want 0", allocs)
	}
}

// TestAllocsDecodePerFrame gates the public batch entry point: a warm Decode
// call's whole-utterance allocation bill (Result construction, backtrace
// copies, counter sampling) must average below one object per frame, for
// both searches allocDecoders returns.
func TestAllocsDecodePerFrame(t *testing.T) {
	scores := getFixture(t, 42).scores[0]
	for _, in := range allocDecoders(t) {
		in.d.Decode(scores) // warm the scratch pool and the offset memo

		allocs := testing.AllocsPerRun(10, func() { in.d.Decode(scores) })
		perFrame := allocs / float64(len(scores))
		if perFrame > 1 {
			t.Errorf("%s: Decode allocates %.2f objects/frame (%.0f per %d-frame utterance), want <= 1",
				in.name, perFrame, allocs, len(scores))
		}
	}
}

// TestAllocsStreamChunk gates the live stream's steady state end to end: a
// warm cycle of chunked scoring through one acoustic.Utterance plus a Push
// per row — the server's /v1/stream loop, 4-frame chunks — must allocate
// NOTHING. The stream is re-armed in place each cycle, so the lattice never
// outgrows its warm size, and the Utterance's rows and window state are
// reused from chunk to chunk; a per-chunk or per-frame allocation fails the
// gate.
func TestAllocsStreamChunk(t *testing.T) {
	f := getFixture(t, 42)
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	frames := f.tk.Test[0].Frames
	s := d.NewStream()
	u := acoustic.NewUtterance(f.tk.Scorer)
	defer u.Close()
	run := func() {
		s.reset(d)
		for i := 0; i < len(frames); i += 4 {
			for _, row := range u.Score(frames[i:min(i+4, len(frames))]) {
				_ = s.Push(row)
			}
		}
	}
	run() // warm every buffer, the stream scratch and the window state

	allocs := testing.AllocsPerRun(10, run)
	if allocs > 0 {
		t.Errorf("steady-state chunked stream allocates %.1f objects per %d-frame utterance, want 0",
			allocs, len(frames))
	}
}

// TestAllocsStreamPush gates the incremental path: a full stream lifecycle
// (NewStream, one Push per frame, Finish) must stay under two objects per
// frame even though each stream takes a fresh scratch from the pool.
func TestAllocsStreamPush(t *testing.T) {
	f := getFixture(t, 42)
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{})
	if err != nil {
		t.Fatal(err)
	}
	scores := f.scores[0]
	run := func() {
		s := d.NewStream()
		for _, frame := range scores {
			_ = s.Push(frame)
		}
		s.Finish()
	}
	run() // warm

	allocs := testing.AllocsPerRun(10, run)
	perFrame := allocs / float64(len(scores))
	if perFrame > 2 {
		t.Errorf("stream lifecycle allocates %.2f objects/frame (%.0f per %d-frame utterance), want <= 2",
			perFrame, allocs, len(scores))
	}
}

// TestAllocsNewOnTheFlyConstant gates construction: the server builds a
// decoder for every /v1/stream request and pools build one per worker, so
// anything O(graph) in NewOnTheFly lands on request latency and live heap.
// The epsilon-state index belongs to the graph and is built once, and the
// offset table waits for the first memo fetch; every later NewOnTheFly over
// the same graphs must allocate the same few hundred bytes whether the AM
// has a thousand states or a million (whose bitset alone is 122 KiB).
func TestAllocsNewOnTheFlyConstant(t *testing.T) {
	lb := wfst.NewBuilder()
	lb.SetStart(lb.AddState())
	lm := lb.MustBuild()
	lm.SortByInput()
	perDecoder := func(states int) uint64 {
		ab := wfst.NewBuilder()
		for i := 0; i < states; i++ {
			ab.AddState()
		}
		ab.SetStart(0)
		for i := 0; i < states-1; i++ {
			ab.AddArc(wfst.StateID(i), wfst.Arc{In: int32(i % 2), Next: wfst.StateID(i + 1)})
		}
		am := ab.MustBuild()
		if _, err := NewOnTheFly(am, lm, Config{}); err != nil { // first use builds the index
			t.Fatal(err)
		}
		const rounds = 64
		best := ^uint64(0)
		var m0, m1 runtime.MemStats
		for try := 0; try < 3; try++ { // min of 3: a background allocation can only add
			runtime.ReadMemStats(&m0)
			for i := 0; i < rounds; i++ {
				if _, err := NewOnTheFly(am, lm, Config{}); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m1)
			best = min(best, (m1.TotalAlloc-m0.TotalAlloc)/rounds)
		}
		return best
	}
	small, large := perDecoder(1_000), perDecoder(1_000_000)
	t.Logf("NewOnTheFly allocates %d B over a 1e3-state AM, %d B over a 1e6-state AM", small, large)
	if small != large || large > 1024 {
		t.Errorf("second NewOnTheFly allocates %d B (1e3 states) vs %d B (1e6 states): want equal and <= 1 KiB",
			small, large)
	}
}
