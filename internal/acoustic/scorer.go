package acoustic

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Scorer turns an utterance's feature frames into per-frame senone
// log-likelihood vectors — the contents of the paper's Acoustic Likelihood
// Buffer. Row f of the result is indexed by senone ID (1-based; index 0 is
// unused and holds -Inf semantics via a very negative value).
type Scorer interface {
	// ScoreUtterance scores all frames at once, mirroring the batch
	// interface between the GPU and the accelerator (Section 5.2). Each call
	// starts a fresh utterance (recurrent state does not carry over from
	// the previous call). It is safe for concurrent use: model weights are
	// read-only after construction and every call works on private state.
	// The rows of one call share a single backing slab, so retaining one
	// row keeps the whole utterance's scores alive. Like the GPU batch, a
	// call may score its frames on several cores: this package's GMM and
	// DNN share an utterance's 16-frame blocks with idle helper goroutines,
	// and return only once every block is scored, with the same bits as
	// one core would write. A search need not wait for the whole batch:
	// Utterance.Row hands out a DNN's rows block by block as they are
	// scored, from the same mechanism.
	ScoreUtterance(frames [][]float32) [][]float32
	// FLOPsPerFrame reports the arithmetic cost per frame, used by the
	// GPU time/energy model.
	FLOPsPerFrame() float64
	Name() string
}

const unusedScore = float32(-1e30)

// scoreBlock is how many consecutive frames ScoreUtterance hands the window
// kernel per pass: every weight row is read once per block and applied to
// all its frames — for the DNN and the GMM with AVX2 as the lanes of one
// SIMD tile, so a block is exactly one tile; otherwise (the RNN, and every
// CPU without AVX2) four at a time (dot4, sqDist4). Wide enough to amortize
// the weight traffic, narrow enough that a block's activations stay
// cache-resident.
const scoreBlock = tileLanes

// scoreBlocked is ScoreUtterance for every scorer: the window kernel driven
// to completion. One slab holds the whole score matrix; the frames walk
// through scoreWindow in scoreBlock-wide blocks against a window state
// borrowed from the scorer's pool, so a call allocates the result and
// nothing else, whatever the frame count or GOMAXPROCS. For the GMM and
// the DNN, scoreWindows shares the blocks with idle helpers, which borrow
// window states of their own from the same pool.
func scoreBlocked(sc windowScorer, frames [][]float32) [][]float32 {
	out := newRows(len(frames), sc.ScoreDim())
	st := borrowWindow(sc)
	scoreWindows(sc, st, frames, out)
	sc.windowPool().Put(st)
	return out
}

// newRows returns n score rows of width dim carved from one slab.
func newRows(n, dim int) [][]float32 {
	rows := make([][]float32, n)
	slab := make([]float32, n*dim)
	for f := range rows {
		rows[f] = slab[f*dim : (f+1)*dim : (f+1)*dim]
	}
	return rows
}

// Utterance scores one utterance that arrives in chunks — a live stream's
// pushes — carrying the scorer's state from each chunk to the next, so the
// rows of all chunks together are bitwise-identical to ScoreUtterance over
// the whole utterance: the RNN's recurrence and score smoothing continue
// across chunk boundaries instead of restarting at each one. It holds one
// window state from the scorer's pool for its life and walks every chunk
// through the same scoreBlock-wide windows ScoreUtterance does.
//
// A chunk is scored either whole (Score) or row by row as a search reads it
// (Load, then Row): the second is how a GMM scores only the senones the
// search asks for, and how a search reads a DNN's first 16-frame block
// while idle helpers score the rest.
//
// A Scorer that is not one of this package's (a test or fault-injection
// wrapper) scores each chunk with its own ScoreUtterance call.
//
// An Utterance is for one goroutine. Close returns the window state to the
// pool; the Utterance must not be used afterwards.
type Utterance struct {
	sc   Scorer
	ws   windowScorer // nil when sc is not a window scorer
	st   windowState
	rows [][]float32

	// The chunk Load handed in, and what Row serves it from: for the GMM
	// the features (gmm set); for every other scorer the chunk's rows
	// (nil until its first Row). A scorer with independent frames (the
	// DNN; perBlock set) scores them in job, started by the chunk's first
	// Row (running) and ended by the next Load, Score, Reset or Close; the
	// RNN scores them whole at that Row, as Score does.
	gmm      *GMMScorer
	perBlock bool
	frames   [][]float32
	loaded   [][]float32
	job      blockJob
	running  bool
}

// NewUtterance starts a chunked utterance on sc.
func NewUtterance(sc Scorer) *Utterance {
	u := &Utterance{sc: sc}
	if ws, ok := sc.(windowScorer); ok {
		u.ws, u.st = ws, borrowWindow(ws)
	}
	u.gmm, _ = sc.(*GMMScorer)
	u.perBlock = u.gmm == nil && u.ws != nil && u.ws.framesIndependent()
	return u
}

// Reset starts a new utterance on u, as if it were a new Utterance on the
// same scorer: the recurrent state restarts.
func (u *Utterance) Reset() {
	u.endJob()
	if u.st != nil {
		u.st.Reset()
	}
}

// endJob abandons the chunk's scoring job, if one is running: it returns
// once no helper writes u's rows, and leaves the unread blocks unscored.
func (u *Utterance) endJob() {
	if u.running {
		u.job.abandon()
		u.running = false
	}
}

// chunkRows returns u's first n rows, grown to n if need be.
func (u *Utterance) chunkRows(n int) [][]float32 {
	if n > len(u.rows) {
		u.rows = newRows(n, u.ws.ScoreDim())
	}
	return u.rows[:n]
}

// Score scores the utterance's next chunk of frames and returns one row per
// frame. The rows are reused by the next Score call: a caller that keeps
// them past it must copy them.
func (u *Utterance) Score(frames [][]float32) [][]float32 {
	if u.ws == nil {
		return u.sc.ScoreUtterance(frames)
	}
	u.endJob()
	out := u.chunkRows(len(frames))
	u.job.start(u.ws, frames, out)
	u.job.finish(u.st)
	return out
}

// Load hands u the utterance's next chunk of frames, to be read through
// Row. Load itself scores nothing, so all scoring runs inside the reader's
// Row calls (a decoder's fault guard covers them): a GMM scores at each Row
// call; a DNN starts the chunk's scoring job at its first Row, idle helpers
// scoring its 16-frame blocks from then on, and each Row returns as soon as
// its own block is written; the RNN scores the chunk whole, as Score does,
// at its first Row. A chunk no Row reads is not scored, and Load abandons
// the blocks of the previous chunk that no Row read. The frames must stay
// unchanged until the next Load.
func (u *Utterance) Load(frames [][]float32) {
	u.endJob()
	u.frames = frames
	if u.gmm != nil {
		st := u.st.(*gmmLaneState)
		st.lo, st.hi = 0, 0
		return
	}
	u.loaded = nil
}

// eagerPercent is the GMM's break-even between the two ways Row scores a
// frame, as a share of the model's senones. Row keeps a moving average of
// how many senones the search reads a frame; while it is below this share
// a frame is scored senone by senone (ScoreSenones), and once it reaches
// it the frame is scored whole by the tile, together with the next
// scoreBlock-1 frames of its chunk, whose rows are then served without
// asking what they need. Per frame the tile wins from about 40-50 % (a
// senone-lane pair costs ~1.7 frame-lane pairs, sixteen senones a call),
// but a block commits sixteen frames: at the served beam the search reads
// ~45 senones on word-boundary frames and a handful on the frames around
// them, and a block started there scores mostly what nobody reads. On the
// 64-utterance big-gmm pool, 60 % leaves 3 % of the served beam's frames
// to blocks (40 % left 37 %) and 90 % of beam 85's (40 %: 92 %), where
// every frame the blocks cover also skips the need list, the costlier half
// of a wide frontier's on-demand frame. TestScoreKernelRatio's wide-need
// row holds that side of the crossover.
const eagerPercent = 60

// Row returns row i of the chunk Load handed in, holding the scorer's value
// for at least every senone need lists: need is called at most once and
// returns the senones the caller will read from the row (1-based). For the
// GMM those are all Row scores, unless the search has been reading
// eagerPercent of the model; other scorers never call need. A DNN's Row
// waits only for the 16-frame block that holds row i, scoring the next
// unclaimed block itself while that one is not ready; a panic in any
// block's scoring surfaces from the Row that needs that block, on the
// caller's goroutine, once every helper has left the chunk. The RNN scores
// the whole chunk at its first Row. Row may be called again for the same i
// with a longer need (a search retrying a frame with a wider beam). The
// row is valid until the next Row, Load or Score call.
func (u *Utterance) Row(i int, need func() []int32) []float32 {
	if u.perBlock {
		if !u.running {
			u.loaded = u.chunkRows(len(u.frames))
			u.job.start(u.ws, u.frames, u.loaded)
			u.running = true
		}
		if !u.job.await(u.st, i/scoreBlock) {
			u.running = false
			panic(u.job.end())
		}
		return u.loaded[i]
	}
	if u.gmm == nil {
		if u.loaded == nil {
			u.loaded = u.Score(u.frames)
		}
		return u.loaded[i]
	}
	g, st := u.gmm, u.st.(*gmmLaneState)
	if i >= st.lo && i < st.hi {
		return st.block[i-st.lo]
	}
	senones := need()
	st.reads += len(senones) - st.reads/4 // four times the average over ~4 frames
	if 25*st.reads >= eagerPercent*g.m.NumSenones {
		end := min(i+scoreBlock, len(u.frames))
		if st.block == nil {
			st.block = newRows(scoreBlock, g.ScoreDim())
		}
		g.stepLanes(st, u.frames[i:end], st.block[:end-i])
		st.lo, st.hi = i, end
		return st.block[0]
	}
	if st.lane == nil {
		st.lane = make([]float32, g.ScoreDim())
		st.lane[0] = unusedScore
	}
	g.ScoreSenones(u.frames[i], senones, st.lane)
	return st.lane
}

// Close abandons the chunk's unread blocks, as Load does, and returns the
// utterance's window state to the scorer's pool once no helper is scoring
// for u. It never panics, and it is idempotent.
func (u *Utterance) Close() {
	u.endJob()
	if u.st != nil {
		u.ws.windowPool().Put(u.st)
		u.st = nil
	}
	u.frames, u.loaded = nil, nil
}

// ---------------------------------------------------------------------------
// GMM scorer

// GMMScorer models each senone as a two-component mixture straddling the
// senone template, every component isotropic with the model's one shared
// variance σ² (the classic Kaldi GMM decoder's acoustic model, at miniature
// scale and without per-dimension covariances).
type GMMScorer struct {
	m      *SenoneModel
	comps  [][]float32 // per senone: two mixture means, concatenated
	means  []float32   // the comps rows back to back, senone 0 zeroed
	lw     float32     // log mixture weight (uniform: log 0.5)
	offset float32     // mixture mean offset relative to sigma
	// Per-component log-density constants, fixed by the model: the variance
	// σ² and the normalizer 0.5·dim·log(2πσ²).
	variance float64
	norm     float64
	windows  sync.Pool // scoreBlock-wide window states for ScoreUtterance
}

// NewGMMScorer derives a GMM from the senone model. The two component means
// sit at mu ± 0.25·sigma, so the mixture is centred on the template.
func NewGMMScorer(m *SenoneModel) *GMMScorer {
	v := float64(m.Sigma) * float64(m.Sigma)
	g := &GMMScorer{
		m: m, lw: float32(-0.6931472), offset: 0.25 * m.Sigma,
		variance: v, norm: 0.5 * float64(m.Dim) * math.Log(2*math.Pi*v),
	}
	g.comps = make([][]float32, m.NumSenones+1)
	g.means = make([]float32, (m.NumSenones+1)*2*m.Dim)
	for s := 1; s <= m.NumSenones; s++ {
		c := g.means[s*2*m.Dim : (s+1)*2*m.Dim : (s+1)*2*m.Dim]
		for d := 0; d < m.Dim; d++ {
			c[d] = m.Means[s][d] - g.offset
			c[m.Dim+d] = m.Means[s][d] + g.offset
		}
		g.comps[s] = c
	}
	return g
}

// Name identifies the scorer in reports (Scorer interface).
func (g *GMMScorer) Name() string { return "GMM" }

// FLOPsPerFrame: per senone, two components, each ~4 ops per dimension.
func (g *GMMScorer) FLOPsPerFrame() float64 {
	return float64(g.m.NumSenones) * 2 * 4 * float64(g.m.Dim)
}

// ScoreUtterance evaluates the two-component mixture for every senone on
// every frame (Scorer interface).
func (g *GMMScorer) ScoreUtterance(frames [][]float32) [][]float32 {
	return scoreBlocked(g, frames)
}

// ---------------------------------------------------------------------------
// DNN scorer

// DNNScorer emulates a feed-forward acoustic network. Discrimination comes
// from an output layer whose weights are analytically derived from the
// senone templates (an affine layer computing 2⟨x,μ⟩−‖μ‖², i.e. the Gaussian
// score up to a per-frame constant that cancels in Viterbi comparisons).
// Hidden layers with random weights are genuinely computed and contribute a
// small perturbation, standing in for the idiosyncrasies of a trained
// network; their main role is a realistic per-frame arithmetic cost.
type DNNScorer struct {
	m       *SenoneModel
	hidden  int
	layers  int
	w1      []float32 // hidden x dim
	wh      []float32 // hidden x hidden, shared across deep layers
	proj    []float32 // (senones+1) x hidden perturbation projection
	tmplW   [][]float32
	tmplB   []float32
	perturb float32
	windows sync.Pool // scoreBlock-wide window states for ScoreUtterance
}

// NewDNNScorer builds the emulated network. hidden is the hidden width
// (default 256), layers the number of hidden layers (default 3).
func NewDNNScorer(m *SenoneModel, rng *rand.Rand, hidden, layers int) *DNNScorer {
	if hidden == 0 {
		hidden = 256
	}
	if layers == 0 {
		layers = 3
	}
	d := &DNNScorer{m: m, hidden: hidden, layers: layers, perturb: 0.02}
	scale := float32(1.0 / float32(m.Dim))
	d.w1 = randMat(rng, hidden*m.Dim, scale)
	d.wh = randMat(rng, hidden*hidden, 1.0/float32(hidden))
	d.proj = randMat(rng, (m.NumSenones+1)*hidden, 1.0/float32(hidden))
	// Template output layer: score_s = (2<x,mu_s> - |mu_s|^2) / (2 sigma^2).
	inv := 1 / (2 * m.Sigma * m.Sigma)
	d.tmplW = make([][]float32, m.NumSenones+1)
	d.tmplB = make([]float32, m.NumSenones+1)
	for s := 1; s <= m.NumSenones; s++ {
		w := make([]float32, m.Dim)
		var sq float32
		for j, mu := range m.Means[s] {
			w[j] = 2 * mu * inv
			sq += mu * mu
		}
		d.tmplW[s] = w
		d.tmplB[s] = -sq * inv
	}
	return d
}

func randMat(rng *rand.Rand, n int, scale float32) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = (rng.Float32()*2 - 1) * scale
	}
	return v
}

// Name identifies the scorer in reports (Scorer interface).
func (d *DNNScorer) Name() string { return "DNN" }

// FLOPsPerFrame counts the network's per-frame multiply-adds (Scorer
// interface; drives the GPU time/energy model).
func (d *DNNScorer) FLOPsPerFrame() float64 {
	return 2 * (float64(d.hidden)*float64(d.m.Dim) +
		float64(d.layers-1)*float64(d.hidden)*float64(d.hidden) +
		float64(d.m.NumSenones+1)*float64(d.hidden) +
		float64(d.m.NumSenones)*float64(d.m.Dim))
}

// ScoreUtterance runs the hidden stack and template output layer over the
// utterance (Scorer interface).
func (d *DNNScorer) ScoreUtterance(frames [][]float32) [][]float32 {
	return scoreBlocked(d, frames)
}

// ---------------------------------------------------------------------------
// RNN scorer

// RNNScorer emulates the EESEN-style recurrent network: a genuinely
// recurrent hidden state (Elman update) plus exponential smoothing of the
// template scores, modelling the temporal integration a trained LSTM
// performs over CTC phone posteriors.
type RNNScorer struct {
	m       *SenoneModel
	hidden  int
	wx      []float32
	wr      []float32
	proj    []float32
	tmpl    *DNNScorer // reuse the template output layer
	alpha   float32
	windows sync.Pool // scoreBlock-wide window states for ScoreUtterance
}

// NewRNNScorer builds the emulated recurrent scorer; hidden defaults to 256.
func NewRNNScorer(m *SenoneModel, rng *rand.Rand, hidden int) *RNNScorer {
	if hidden == 0 {
		hidden = 256
	}
	return &RNNScorer{
		m:      m,
		hidden: hidden,
		wx:     randMat(rng, hidden*m.Dim, 1.0/float32(m.Dim)),
		wr:     randMat(rng, hidden*hidden, 1.0/float32(hidden)),
		proj:   randMat(rng, (m.NumSenones+1)*hidden, 1.0/float32(hidden)),
		tmpl:   NewDNNScorer(m, rng, 8, 1), // tiny stack; we use only its template layer
		alpha:  0.7,
	}
}

// Name identifies the scorer in reports (Scorer interface).
func (r *RNNScorer) Name() string { return "RNN" }

// FLOPsPerFrame counts the recurrence's per-frame multiply-adds (Scorer
// interface; drives the GPU time/energy model).
func (r *RNNScorer) FLOPsPerFrame() float64 {
	return 2 * (float64(r.hidden)*float64(r.m.Dim) +
		float64(r.hidden)*float64(r.hidden) +
		float64(r.m.NumSenones+1)*float64(r.hidden) +
		float64(r.m.NumSenones)*float64(r.m.Dim))
}

// ScoreUtterance runs the Elman recurrence with score smoothing over the
// utterance (Scorer interface).
func (r *RNNScorer) ScoreUtterance(frames [][]float32) [][]float32 {
	return scoreBlocked(r, frames)
}

// ---------------------------------------------------------------------------
// Helpers

func dot(a, b []float32) float32 {
	var s float32
	for i := range b {
		s += a[i] * b[i]
	}
	return s
}

func reluInPlace(v []float32) {
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		}
	}
}

func tanhInPlace(v []float32) {
	for i, x := range v {
		// Rational tanh approximation: cheap and monotone, adequate for an
		// emulated network.
		x2 := x * x
		v[i] = x * (27 + x2) / (27 + 9*x2)
	}
}

// SizeBytes reports the model's storage footprint (float32 parameters) for
// the Figure 2 / Section 5.2 dataset-size accounting.
func SizeBytes(s Scorer) int64 {
	switch sc := s.(type) {
	case *GMMScorer:
		return int64(sc.m.NumSenones) * int64(2*sc.m.Dim+2) * 4
	case *DNNScorer:
		return int64(len(sc.w1)+len(sc.wh)*(sc.layers-1)+len(sc.proj)+
			(sc.m.NumSenones+1)*(sc.m.Dim+1)) * 4
	case *RNNScorer:
		return int64(len(sc.wx)+len(sc.wr)+len(sc.proj)+
			(sc.m.NumSenones+1)*(sc.m.Dim+1)) * 4
	default:
		return 0
	}
}

// Validate sanity-checks a score matrix shape against a senone model.
func Validate(m *SenoneModel, scores [][]float32) error {
	for f, row := range scores {
		if len(row) != m.NumSenones+1 {
			return fmt.Errorf("acoustic: frame %d has %d scores, want %d", f, len(row), m.NumSenones+1)
		}
	}
	return nil
}
