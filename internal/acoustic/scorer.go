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
	// row keeps the whole utterance's scores alive.
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
// through ScoreWindow in scoreBlock-wide blocks against a window state
// borrowed from the scorer's pool, so a call allocates the result and
// nothing else, whatever the frame count.
func scoreBlocked(sc windowScorer, states *sync.Pool, frames [][]float32) [][]float32 {
	dim := sc.ScoreDim()
	out := make([][]float32, len(frames))
	slab := make([]float32, len(frames)*dim)
	for f := range out {
		out[f] = slab[f*dim : (f+1)*dim : (f+1)*dim]
	}
	st, _ := states.Get().(LaneState)
	if st == nil {
		st = sc.NewWindowState(scoreBlock)
	}
	st.Reset()
	for base := 0; base < len(frames); base += scoreBlock {
		end := min(base+scoreBlock, len(frames))
		sc.ScoreWindow(st, frames[base:end], out[base:end])
	}
	states.Put(st)
	return out
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
	return scoreBlocked(g, &g.windows, frames)
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
	return scoreBlocked(d, &d.windows, frames)
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
	return scoreBlocked(r, &r.windows, frames)
}

// ---------------------------------------------------------------------------
// Helpers

func addMatVec(dst, m, x []float32) {
	n := len(x)
	rows := len(dst)
	for i := 0; i < rows; i++ {
		dst[i] += dot(m[i*n:(i+1)*n], x)
	}
}

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
