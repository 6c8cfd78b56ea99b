package main

// layers.go is the only file that calls into the repository. Everything
// else in bench/ sees the benchmark's own types, so a later refactor of the
// decoder, pool or server packages has one file to follow. The entry points
// used are the ones ROADMAP item 2 keeps: NewSystem, System.Recognize,
// System.NewDecoder + (*OnTheFly).Decode/NewStream, Scorer.ScoreUtterance,
// System.NewDecodePool, SaveFlat, LoadRecognizer(Fast), ResidentBytes,
// Footprint, server.New/LoadSystem/Handler. The fully-composed decoder is
// touched once, for the -smoke equivalence gate.

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"

	unfold "repro"
	"repro/internal/decoder"
	"repro/internal/server"
)

// utterance is one test item in the benchmark's own terms.
type utterance struct {
	ref    []int32
	frames [][]float32
}

// searchStats is the benchmark's copy of the decoder's work counters.
type searchStats struct {
	Frames, TokensExpanded, TokensCreated, TokensBeamCut int64
	Arcs, Eps                                            int64
	LMFetches, LMProbes, BackoffHops                     int64
	MemoHits, MemoMisses, PreemptivePruned               int64
	Rescues, SearchFailures, LatticeEntries              int64
}

func (s *searchStats) add(o searchStats) {
	s.Frames += o.Frames
	s.TokensExpanded += o.TokensExpanded
	s.TokensCreated += o.TokensCreated
	s.TokensBeamCut += o.TokensBeamCut
	s.Arcs += o.Arcs
	s.Eps += o.Eps
	s.LMFetches += o.LMFetches
	s.LMProbes += o.LMProbes
	s.BackoffHops += o.BackoffHops
	s.MemoHits += o.MemoHits
	s.MemoMisses += o.MemoMisses
	s.PreemptivePruned += o.PreemptivePruned
	s.Rescues += o.Rescues
	s.SearchFailures += o.SearchFailures
	s.LatticeEntries += o.LatticeEntries
}

func statsOf(st decoder.Stats) searchStats {
	return searchStats{
		Frames: int64(st.Frames), TokensExpanded: st.TokensExpanded, TokensCreated: st.TokensCreated,
		TokensBeamCut: st.TokensBeamCut, Arcs: st.ArcsTraversed, Eps: st.EpsTraversed,
		LMFetches: st.LMFetches, LMProbes: st.LMProbes, BackoffHops: st.BackoffHops,
		MemoHits: st.MemoHits, MemoMisses: st.MemoMisses, PreemptivePruned: st.PreemptivePruned,
		Rescues: st.Rescues, SearchFailures: st.SearchFailures, LatticeEntries: st.LatticeEntries,
	}
}

// system wraps a task-built recognizer.
type system struct{ sys *unfold.System }

func buildSystem(m modelSpec) (*system, error) {
	spec := unfold.Spec{
		Name:           m.Name,
		Vocab:          m.Vocab,
		Phones:         m.Phones,
		StatesPerPhone: 3,
		LMOrder:        3,
		LMMinCount:     m.LMMinCount,
		TrainSentences: m.TrainSentences,
		TestUtterances: m.TestUtterances,
		MaxSentenceLen: m.MaxSentenceLen,
		GrammarBranch:  m.GrammarBranch,
		NoiseStd:       m.NoiseStd,
		Seed:           m.Seed,
	}
	if m.DNN {
		spec.Scorer = "dnn"
	}
	sys, err := unfold.NewSystem(spec)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", m.Name, err)
	}
	return &system{sys}, nil
}

func (s *system) testSet() []utterance {
	out := make([]utterance, 0, len(s.sys.TestSet()))
	for _, u := range s.sys.TestSet() {
		out = append(out, utterance{ref: u.Words, frames: u.Frames})
	}
	return out
}

func (s *system) recognize(frames [][]float32) ([]int32, error) { return s.sys.Recognize(frames) }

func (s *system) score(frames [][]float32) [][]float32 {
	return s.sys.Task.Scorer.ScoreUtterance(frames)
}

// text renders word IDs the way the server does.
func (s *system) text(ids []int32) string { return strings.Join(s.sys.Words(ids), " ") }

func (s *system) saveFlat(path string) error { return s.sys.SaveFlat(path) }

// graphSizes are the static wfst./compress./task. layer numbers.
type graphSizes struct {
	vocab                              int
	amStates, amArcs, lmStates, lmArcs int
	csrBytes, packedBytes              int64
}

func (s *system) sizes() graphSizes {
	fp := s.sys.Footprint()
	am, lm := s.sys.Task.AM.G, s.sys.Task.LMGraph.G
	return graphSizes{
		vocab:    s.sys.Task.Lex.V(),
		amStates: am.NumStates(), amArcs: am.NumArcs(),
		lmStates: lm.NumStates(), lmArcs: lm.NumArcs(),
		csrBytes: fp.OnTheFlyBytes(), packedBytes: fp.CompressedBytes(),
	}
}

// searcher is one on-the-fly decoder over pre-scored frames.
type searcher struct{ d *decoder.OnTheFly }

// searchMode picks a search configuration by the path that uses it.
type searchMode int

const (
	// searchRecognize is what System.Recognize and a loaded Recognizer run.
	searchRecognize searchMode = iota
	// searchWideBeam is searchRecognize with the beam widened to wideBeam.
	searchWideBeam
	// searchServer is what server.Config{} gives its pool workers and
	// stream decoders: the zero decoder configuration, which unlike
	// System.Recognize leaves preemptive back-off pruning off.
	searchServer
)

func (m searchMode) config() unfold.DecoderConfig {
	switch m {
	case searchWideBeam:
		return unfold.DecoderConfig{PreemptivePruning: true, Beam: wideBeam}
	case searchServer:
		return unfold.DecoderConfig{}
	default:
		return unfold.DecoderConfig{PreemptivePruning: true}
	}
}

func (s *system) newSearcher(m searchMode) (*searcher, error) {
	d, err := s.sys.NewDecoder(m.config())
	if err != nil {
		return nil, err
	}
	return &searcher{d}, nil
}

func (d *searcher) decode(scores [][]float32) ([]int32, searchStats) {
	res := d.d.Decode(scores)
	return res.Words, statsOf(res.Stats)
}

// stream decodes scores incrementally, asking for a partial hypothesis
// every chunk frames. push and partial wrap the two calls so the caller can
// time them.
func (d *searcher) stream(scores [][]float32, chunk int, push func(run func()), partial func(run func())) ([]int32, error) {
	st := d.d.NewStream()
	var perr error
	for lo := 0; lo < len(scores); lo += chunk {
		hi := min(lo+chunk, len(scores))
		push(func() {
			for _, row := range scores[lo:hi] {
				if err := st.Push(row); err != nil && perr == nil {
					perr = err
				}
			}
		})
		partial(func() { st.Partial() })
	}
	return st.Finish().Words, perr
}

// composedWords decodes scores on the offline AM∘LM composition with the
// default search configuration — the paper's baseline, and the oracle of
// its equivalence claim. Smoke fixture only: the composition of a big task
// does not fit.
func (s *system) composedWords(scores [][][]float32) ([][]int32, error) {
	g, err := s.sys.Composed()
	if err != nil {
		return nil, err
	}
	dc, err := decoder.NewComposed(g, decoder.Config{})
	if err != nil {
		return nil, err
	}
	out := make([][]int32, len(scores))
	for i, sc := range scores {
		out[i] = dc.Decode(sc).Words
	}
	return out, nil
}

// poolResult is one DecodePool batch seen from outside.
type poolResult struct {
	words            [][]int32
	failed           int
	l2Hits, l2Misses int64
}

// decodePool is a long-lived batch pool at the workload's search
// configuration.
type decodePool struct{ p *unfold.DecodePool }

func (s *system) newPool(workers int, m searchMode) (*decodePool, error) {
	p, err := s.sys.NewDecodePool(unfold.PoolConfig{Workers: workers, Decoder: m.config()})
	if err != nil {
		return nil, err
	}
	return &decodePool{p}, nil
}

func (p *decodePool) batch(scores [][][]float32) (poolResult, error) {
	b, err := p.p.Decode(scores)
	if err != nil {
		return poolResult{}, err
	}
	r := poolResult{failed: b.Failed(), l2Hits: b.Cache.L2Hits, l2Misses: b.Cache.L2Misses}
	for _, res := range b.Results {
		if res == nil {
			r.words = append(r.words, nil)
			continue
		}
		r.words = append(r.words, res.Words)
	}
	return r, nil
}

// recognizer wraps a bundle-loaded model.
type recognizer struct{ r *unfold.Recognizer }

func loadFast(path string) (*recognizer, error) {
	r, err := unfold.LoadRecognizerFast(path)
	if err != nil {
		return nil, err
	}
	return &recognizer{r}, nil
}

func loadVerified(path string) (*recognizer, error) {
	r, err := unfold.LoadRecognizer(path)
	if err != nil {
		return nil, err
	}
	return &recognizer{r}, nil
}

func (r *recognizer) recognize(frames [][]float32) ([]int32, error) { return r.r.Recognize(frames) }
func (r *recognizer) residentBytes() int64                          { return r.r.ResidentBytes() }
func (r *recognizer) mapped() bool                                  { return r.r.Mapped() }
func (r *recognizer) close() error                                  { return r.r.Close() }

// served is an in-process unfold-serve: server.Config{} defaults behind a
// loopback TCP listener.
type served struct {
	url  string
	srv  *server.Server
	hs   *http.Server
	done chan error
}

func (s *system) serve() (*served, error) {
	srv := server.New(server.Config{})
	if err := srv.LoadSystem(server.DefaultModel, s.sys); err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	sv := &served{
		url:  "http://" + ln.Addr().String(),
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		done: make(chan error, 1),
	}
	go func() { sv.done <- sv.hs.Serve(ln) }()
	return sv, nil
}

// close stops the listener, every connection and the server's supervisor,
// and waits for the accept loop to return.
func (sv *served) close() error {
	err := sv.hs.Close()
	if serr := <-sv.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	sv.srv.Close()
	return err
}
