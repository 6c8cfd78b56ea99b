// Package unfold is the public API of the UNFOLD reproduction: a
// memory-efficient speech recognizer built on on-the-fly WFST composition
// (Yazdani, Arnau, González — MICRO-50, 2017).
//
// A Recognizer is the runnable model: the acoustic-model and language-model
// transducers and an acoustic scorer, searched by one on-the-fly decoder. A
// System is a Recognizer plus the task it was built from: the compressed
// transducers, the test set, and constructors for the two simulated
// hardware designs. The typical flow:
//
//	sys, _ := unfold.NewSystem(unfold.KaldiVoxforge(1.0))
//	words, _ := sys.Recognize(sys.TestSet()[0].Frames)
//
// Everything underneath lives in internal/ packages; this package is the
// supported surface.
package unfold

import (
	"context"
	"fmt"

	"repro/internal/accel"
	"repro/internal/acoustic"
	"repro/internal/am"
	"repro/internal/compress"
	"repro/internal/decoder"
	"repro/internal/flatstore"
	"repro/internal/lm"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/task"
	"repro/internal/wfst"
)

// Spec describes a benchmark task; see the predefined constructors.
type Spec = task.Spec

// Utterance is a test item: reference words plus synthesized frames.
type Utterance = task.Utterance

// DecoderConfig tunes the beam search (beam width, pruning, LM lookup).
type DecoderConfig = decoder.Config

// DecodePool is the concurrent batch-decoding engine: N workers, each with
// a private on-the-fly decoder and its own offset table. Build one with
// System.NewDecodePool; see docs/DECODING.md.
type DecodePool = pool.DecodePool

// PoolConfig sizes a DecodePool (worker count, the per-worker decoder
// configuration, optional telemetry).
type PoolConfig = pool.Config

// DecodeBatch is the result of one DecodePool.Decode call: per-utterance
// results plus throughput and search aggregates.
type DecodeBatch = pool.Batch

// Throughput reports batch decode rates (utterances/sec, frames/sec,
// aggregate real-time factor, offset-table hit rate).
type Throughput = metrics.Throughput

// Predefined tasks mirroring the paper's evaluation set. The scale factor
// multiplies vocabulary and corpus sizes (1.0 = laptop-friendly defaults).
var (
	KaldiTedlium     = task.KaldiTedlium
	KaldiLibrispeech = task.KaldiLibrispeech
	KaldiVoxforge    = task.KaldiVoxforge
	EesenTedlium     = task.EesenTedlium
)

// Recognizer is the runnable model: the AM and LM transducers, the lexicon
// and the acoustic scorer, searched by one on-the-fly decoder. Every decode
// entry point is a Recognizer method. LoadRecognizer and LoadRecognizerFast
// restore one from a bundle, without the synthetic task scaffolding (no
// corpus, no test set); NewSystem builds one inside a System. A v3 (flat
// bundle) load reads its graphs through the bundle mapping; release it with
// Close when done. Model is set by v2 loads and by NewSystem — v3 bundles
// decode from the flat LM graph directly and keep the ARPA text as an
// unparsed section.
type Recognizer struct {
	// TaskName is the originating task, from the bundle metadata or the
	// task spec.
	TaskName string

	Lex     *am.Lexicon
	AMGraph *wfst.WFST
	LMGraph *wfst.WFST
	Model   *lm.Model
	Senones *acoustic.SenoneModel
	Scorer  acoustic.Scorer
	dec     *decoder.OnTheFly

	// bundle is the mapping a v3 load decodes through (persist_v3.go);
	// nil for a v2 load or a task-built System.
	bundle *flatstore.Bundle
}

// System is a Recognizer plus the task it was built from: the task record,
// the compressed transducers, the offline composition and the accelerator
// constructors. Its decode methods are the embedded Recognizer's.
//
// Task is the build record. The decode path reads the Recognizer's fields
// (Scorer, AMGraph, LMGraph, Lex, Senones), which NewSystem points at the
// task's; replacing Task.Scorer does not change what Recognize scores with —
// set Scorer for that.
type System struct {
	*Recognizer

	Task *task.Task
	// AM and LM are the compressed transducers UNFOLD decodes from.
	AM *compress.AM
	LM *compress.LM

	composed *wfst.WFST
}

// NewSystem builds the models for a task spec and compresses them.
func NewSystem(spec Spec) (*System, error) {
	tk, err := task.Build(spec)
	if err != nil {
		return nil, err
	}
	qa, err := compress.TrainQuantizer(compress.CollectWeights(tk.AM.G), 0)
	if err != nil {
		return nil, fmt.Errorf("unfold: quantizing AM: %w", err)
	}
	cam, err := compress.EncodeAM(tk.AM.G, qa)
	if err != nil {
		return nil, fmt.Errorf("unfold: compressing AM: %w", err)
	}
	ql, err := compress.TrainQuantizer(compress.CollectWeights(tk.LMGraph.G), 0)
	if err != nil {
		return nil, fmt.Errorf("unfold: quantizing LM: %w", err)
	}
	clm, err := compress.EncodeLM(tk.LMGraph, ql)
	if err != nil {
		return nil, fmt.Errorf("unfold: compressing LM: %w", err)
	}
	r := &Recognizer{TaskName: tk.Spec.Name, Lex: tk.Lex, AMGraph: tk.AM.G, LMGraph: tk.LMGraph.G,
		Model: tk.LM, Senones: tk.Senones, Scorer: tk.Scorer}
	if err := r.start(); err != nil {
		return nil, err
	}
	return &System{Recognizer: r, Task: tk, AM: cam, LM: clm}, nil
}

// start builds the shared decoder Recognize, RecognizeContext and
// RecognizeTimed search on.
func (r *Recognizer) start() (err error) {
	r.dec, err = decoder.NewOnTheFly(r.AMGraph, r.LMGraph, decoder.Config{PreemptivePruning: true})
	return err
}

// TestSet returns the task's held-out utterances.
func (s *System) TestSet() []Utterance { return s.Task.Test }

// Words renders word IDs as surface forms.
func (r *Recognizer) Words(ids []int32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = r.Lex.Words[id]
	}
	return out
}

// Recognize runs the full pipeline — acoustic scoring plus the on-the-fly
// Viterbi search — and returns the recognized word IDs. Frames are
// validated against the acoustic model's feature dimension up front; a
// mismatch returns a *DimensionError instead of garbage scores or a panic
// deep in the scorer.
//
// A panic or memory fault in the scoring or the search (a v3 bundle whose
// mapped file was truncated under it, say) returns a *DecodeError with
// Stage StageSearch, and the process keeps running.
//
// The search runs on the calling goroutine, and so does a GMM's on-demand
// scoring. A DNN starts scoring the utterance's 16-frame blocks at the
// search's first frame, with idle helper goroutines (up to GOMAXPROCS-1,
// process-wide) taking blocks beside it, and the search reads each block
// as soon as it is written, scoring the next one itself while the block it
// needs is not ready. So one call may use every idle core while it scores
// and searches; a panic on a helper returns to this call, at the frame
// whose block it hit, as one on its own goroutine would.
//
// A Recognizer decodes on one shared decoder whose offset table is not
// synchronized: make one Recognize/RecognizeContext/RecognizeTimed call at a
// time per Recognizer. NewDecodePool is the concurrent batch entry point.
func (r *Recognizer) Recognize(frames [][]float32) ([]int32, error) {
	return r.RecognizeContext(context.Background(), frames)
}

// RecognizeContext is Recognize with deadline/cancellation semantics: the
// context is checked before scoring and once per frame during the search,
// and on cancellation the best partial hypothesis (none, before the first
// frame) is returned together with ctx.Err(). Frames are scored as the
// search reads them, the feature path /v1/recognize serves, which for a GMM
// scores only the senones each pruned frontier reads; the words are those of
// a Decode over the scorer's ScoreUtterance rows.
func (r *Recognizer) RecognizeContext(ctx context.Context, frames [][]float32) ([]int32, error) {
	if len(frames) == 0 {
		return nil, nil
	}
	res, err := r.decode(ctx, frames)
	if res == nil {
		return nil, err
	}
	return res.Words, err
}

// decode validates, scores and searches one utterance on the shared
// decoder. A fault the decoder's session caught is a StageSearch
// *DecodeError with no result; ctx's own error comes back with the partial
// result.
func (r *Recognizer) decode(ctx context.Context, frames [][]float32) (*decoder.Result, error) {
	if err := validateFrames(frames, r.Senones.Dim); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err // scoring is most of a request; a dead one skips it
	}
	u := acoustic.NewUtterance(r.Scorer)
	defer u.Close()
	u.Load(frames)
	res, err := r.dec.DecodeContext(ctx, u, len(frames))
	if err != nil && err != ctx.Err() {
		return nil, &DecodeError{Utterance: 0, Stage: StageSearch, Cause: err}
	}
	return res, err
}

// NewDecoder builds a software on-the-fly decoder with a custom config.
func (r *Recognizer) NewDecoder(cfg DecoderConfig) (*decoder.OnTheFly, error) {
	return decoder.NewOnTheFly(r.AMGraph, r.LMGraph, cfg)
}

// NewDecodePool builds a concurrent batch-decoding engine over the
// recognizer's graphs. The pool is long-lived: reusing it across batches
// keeps each worker's offset table warm. Transcripts are identical to
// sequential decoding for any worker count.
func (r *Recognizer) NewDecodePool(cfg PoolConfig) (*DecodePool, error) {
	return pool.New(r.AMGraph, r.LMGraph, cfg)
}

// RecognizeBatch scores and decodes a batch of utterances on a transient
// pool of the given worker count (≤0 means GOMAXPROCS). It returns
// per-utterance word IDs, index-aligned with the input, plus the batch
// throughput aggregates. For repeated batches build a DecodePool once via
// NewDecodePool and keep it warm instead.
//
// Each worker scores its utterance's features as its search reads them, so
// the reported throughput covers scoring and search.
func (r *Recognizer) RecognizeBatch(frames [][][]float32, workers int) ([][]int32, Throughput, error) {
	return r.RecognizeBatchContext(context.Background(), frames, workers)
}

// RecognizeBatchContext is RecognizeBatch with deadline/cancellation
// semantics. Every utterance's feature dimensions are validated up front
// (fail fast with a *DecodeError wrapping a *DimensionError, before any
// scoring work). On cancellation it returns promptly with index-aligned
// partial results — utterances decoded before the cancellation keep their
// transcripts, the rest are nil — together with ctx.Err().
func (r *Recognizer) RecognizeBatchContext(ctx context.Context, frames [][][]float32, workers int) ([][]int32, Throughput, error) {
	for i, f := range frames {
		if err := validateFrames(f, r.Senones.Dim); err != nil {
			return nil, Throughput{}, &DecodeError{Utterance: i, Stage: StageFeatures, Cause: err}
		}
	}
	p, err := r.NewDecodePool(PoolConfig{Workers: workers})
	if err != nil {
		return nil, Throughput{}, err
	}
	batch, err := p.DecodeContext(ctx, frames, r.Scorer, decoder.Options{})
	if batch == nil {
		return nil, Throughput{}, err
	}
	out := make([][]int32, len(batch.Results))
	for i, res := range batch.Results {
		if res != nil {
			out[i] = res.Words
		}
	}
	return out, batch.Throughput, err
}

// RecognizeTimed runs the pipeline and additionally returns each word's end
// time in seconds (frame index x 10 ms).
func (r *Recognizer) RecognizeTimed(frames [][]float32) (words []int32, ends []float64, err error) {
	if len(frames) == 0 {
		return nil, nil, nil
	}
	res, err := r.decode(context.Background(), frames)
	if err != nil {
		return nil, nil, err
	}
	ends = make([]float64, len(res.WordEnds))
	for i, e := range res.WordEnds {
		ends[i] = float64(e) * 0.010
	}
	return res.Words, ends, nil
}

// NewAccelerator builds the UNFOLD hardware simulator over the compressed
// datasets.
func (s *System) NewAccelerator(cfg DecoderConfig) (*accel.Unfold, error) {
	return accel.NewUnfold(accel.UnfoldConfig(), cfg, s.AM, s.LM, s.Task.AM.NumSenones)
}

// NewBaselineAccelerator builds the fully-composed baseline simulator; it
// triggers the offline composition on first use.
func (s *System) NewBaselineAccelerator(cfg DecoderConfig) (*accel.FullyComposed, error) {
	g, err := s.Composed()
	if err != nil {
		return nil, err
	}
	return accel.NewFullyComposed(accel.BaselineConfig(), cfg, g, s.Task.AM.NumSenones)
}

// Composed returns (building and caching on first call) the offline
// AM∘LM composition — the baseline's dataset and the memory blow-up the
// paper avoids.
func (s *System) Composed() (*wfst.WFST, error) {
	if s.composed == nil {
		g, err := wfst.Compose(s.Task.AM.G, s.Task.LMGraph.G, wfst.ComposeOptions{MaxStates: 30_000_000})
		if err != nil {
			return nil, err
		}
		s.composed = g
	}
	return s.composed, nil
}

// Footprint summarizes dataset sizes (the Table 1 / Figure 8 quantities).
type Footprint struct {
	AMBytes           int64
	LMBytes           int64
	AMCompressedBytes int64
	LMCompressedBytes int64
	// ComposedBytes is 0 until Composed() has been built.
	ComposedBytes int64
}

// OnTheFlyBytes is the total UNFOLD dataset size.
func (f Footprint) OnTheFlyBytes() int64 { return f.AMBytes + f.LMBytes }

// CompressedBytes is the total compressed UNFOLD dataset size.
func (f Footprint) CompressedBytes() int64 { return f.AMCompressedBytes + f.LMCompressedBytes }

// Footprint reports the system's dataset sizes.
func (s *System) Footprint() Footprint {
	f := Footprint{
		AMBytes:           s.Task.AM.G.SizeBytes(),
		LMBytes:           s.Task.LMGraph.G.SizeBytes(),
		AMCompressedBytes: s.AM.SizeBytes(),
		LMCompressedBytes: s.LM.SizeBytes(),
	}
	if s.composed != nil {
		f.ComposedBytes = s.composed.SizeBytes()
	}
	return f
}

// EvaluateWER decodes the test set and returns the word error rate (%).
func (s *System) EvaluateWER() (float64, error) {
	var acc metrics.WERAccumulator
	for _, u := range s.Task.Test {
		hyp, err := s.Recognize(u.Frames)
		if err != nil {
			return 0, err
		}
		acc.Add(u.Words, hyp)
	}
	return acc.WER(), nil
}
