package acoustic

import "sync"

// Window scoring: the one block kernel behind ScoreUtterance and
// Utterance.Score. scoreWindow advances ONE utterance by up to `width`
// consecutive frames in a single call, so every weight row is read once per
// block of frames instead of once per frame.
//
// For the stateless scorers (GMM, DNN) consecutive frames are fully
// independent, so a window goes through the forward passes of batch.go as it
// stands, and inherits their kernels (the AVX2 tile, or sqDist4/dot4 without
// it). The RNN's recurrence is sequential across frames, but its input-side
// work is not: the wx·x rows and the template tw·x rows depend only on the
// frame's features, so scoreWindow precomputes both across the whole window
// with rowDotLanes/dot4, then runs the cheap sequential part (wr·h
// recurrence, projection, smoothing) frame by frame.
//
// The contract is bitwise equality: the rows produced by consecutive
// scoreWindow calls over an utterance's frames are float32-identical to
// scoring the utterance one frame at a time (the scalar oracle in
// scalar_test.go) — same operands, same order, per (frame, element), at any
// window width. TestScoreWindowMatchesUtterance locks this down for all three
// scorers.
//
// Because the GMM's and the DNN's frames are independent, scoreWindows hands
// the blocks of one call to idle cores as well (fanout.go): every block is
// still one scoreWindow call with the sequential loop's boundaries, only on
// another goroutine against a window state of its own. The RNN's blocks
// stay on the caller, one after another, since each continues the last.

// windowState holds one utterance's scorer state across windows: the RNN's
// recurrence and smoother, and every scorer's per-window scratch. Reset
// reinitializes it for a new utterance. A state is used by one goroutine at
// a time, so none of this needs locking.
type windowState interface {
	Reset()
}

// windowScorer is a Scorer that can score a window of consecutive frames of
// one utterance in a single call. All three repo scorers are.
type windowScorer interface {
	Scorer
	// ScoreDim is the per-frame score-row length (NumSenones+1; index 0 is
	// the unused -1e30 slot). Callers size the out rows with it.
	ScoreDim() int
	// newWindowState allocates the state for scoring one utterance through
	// windows of at most width frames: the recurrent state (RNN) plus all
	// per-window scratch, so scoreWindow itself allocates nothing.
	newWindowState(width int) windowState
	// scoreWindow scores len(frames) consecutive frames of one utterance,
	// writing frame i's scores into out[i] (length ScoreDim, 1-based senone
	// indexing). frames and out are index-aligned; len(frames) must be at
	// most the width the state was built for. Successive calls continue the
	// same utterance (the recurrence carries across calls), exactly as if
	// ScoreUtterance had been called on the concatenated frames.
	//
	// scoreWindow touches only the state and the out rows, so it may run
	// concurrently with other calls on the same scorer (model weights are
	// read-only after construction). This is what keeps ScoreUtterance safe
	// for concurrent use: each call scores against a window state of its own.
	scoreWindow(state windowState, frames, out [][]float32)
	// windowPool recycles the scorer's scoreBlock-wide window states.
	windowPool() *sync.Pool
	// framesIndependent reports whether a frame's scores depend on its own
	// features only, so any window state may score any block of an
	// utterance and scoreWindows may score the blocks in parallel.
	framesIndependent() bool
}

// borrowWindow takes a scoreBlock-wide window state from sc's pool (or makes
// one), reset for a new utterance.
func borrowWindow(sc windowScorer) windowState {
	st, _ := sc.windowPool().Get().(windowState)
	if st == nil {
		st = sc.newWindowState(scoreBlock)
	}
	st.Reset()
	return st
}

// scoreWindows walks frames through scoreWindow in scoreBlock-wide windows,
// continuing the utterance st carries: the block loop of ScoreUtterance and
// of every Utterance.Score chunk, a scoring job (fanout.go) run to its end.
// When sc's frames are independent, the call spans at least two blocks and
// GOMAXPROCS is above 1, the blocks are shared with idle helper goroutines;
// each block keeps its boundaries, so the rows are the same bits either
// way.
func scoreWindows(sc windowScorer, st windowState, frames, out [][]float32) {
	j := jobs.Get().(*blockJob)
	j.start(sc, frames, out)
	j.finish(st)
	jobs.Put(j)
}

// ---------------------------------------------------------------------------
// GMM

func (g *GMMScorer) windowPool() *sync.Pool { return &g.windows }

func (g *GMMScorer) framesIndependent() bool { return true }

// newWindowState implements windowScorer: the stateless GMM needs only the
// tile scratch, whatever the width.
func (g *GMMScorer) newWindowState(width int) windowState { return &gmmLaneState{} }

// scoreWindow implements windowScorer: the GMM has no cross-frame state, so
// the window's frames go straight to stepLanes — senone-outer, frame-inner,
// each component-mean row read once per window.
func (g *GMMScorer) scoreWindow(state windowState, frames, out [][]float32) {
	g.stepLanes(state.(*gmmLaneState), frames, out)
}

// ---------------------------------------------------------------------------
// DNN

// dnnWindowState holds one scratch state per window frame; the DNN keeps no
// state across frames, but each frame's hidden activations feed its own
// perturbation term, so the frames need separate buffers (on the tile path
// each group of 16 shares the tile its first state carries).
type dnnWindowState struct {
	states []*dnnLaneState
}

func (*dnnWindowState) Reset() {}

func (d *DNNScorer) windowPool() *sync.Pool { return &d.windows }

func (d *DNNScorer) framesIndependent() bool { return true }

// newWindowState implements windowScorer.
func (d *DNNScorer) newWindowState(width int) windowState {
	ws := &dnnWindowState{states: make([]*dnnLaneState, width)}
	for i := range ws.states {
		ws.states[i] = &dnnLaneState{}
	}
	return ws
}

// scoreWindow implements windowScorer: frames are independent, so the window
// runs through stepLanes laneChunk frames at a time — every weight row of
// w1/wh and every template/projection row streams through the cache once per
// chunk and meets the frames as the lanes of a SIMD tile (or, without AVX2,
// four at a time through dot4). Per frame the arithmetic is exactly a solo
// matvec pass's.
func (d *DNNScorer) scoreWindow(state windowState, frames, out [][]float32) {
	sts := state.(*dnnWindowState).states
	for base := 0; base < len(frames); base += laneChunk {
		end := min(base+laneChunk, len(frames))
		d.stepLanes(sts[base:end], frames[base:end], out[base:end])
	}
}

// ---------------------------------------------------------------------------
// RNN

// rnnWindowState is the Elman recurrence state and the exponential score
// smoother — the per-utterance locals of a frame-at-a-time pass, lifted into
// a state so the recurrence survives across windows — plus the window-wide
// precompute buffers: ax[f][i] collects the input-projection dots (wx row i ·
// frame f) and tx[f][s] the template dots (tmplW row s · frame f) for every
// frame of the current window before the sequential pass consumes them.
type rnnWindowState struct {
	h, hNew []float32
	smooth  []float32
	first   bool
	ax      []float32 // width x hidden, row-major per frame
	tx      []float32 // width x (senones+1), row-major per frame
	// Row views over ax/tx, shaped for rowDotLanes.
	axRows [][]float32
	txRows [][]float32
}

func (ws *rnnWindowState) Reset() {
	clear(ws.h)
	ws.first = true
}

func (r *RNNScorer) windowPool() *sync.Pool { return &r.windows }

// framesIndependent is false: the recurrence carries from frame to frame.
func (r *RNNScorer) framesIndependent() bool { return false }

// newWindowState implements windowScorer.
func (r *RNNScorer) newWindowState(width int) windowState {
	dim := r.m.NumSenones + 1
	ws := &rnnWindowState{
		h:      make([]float32, r.hidden),
		hNew:   make([]float32, r.hidden),
		smooth: make([]float32, dim),
		first:  true,
		ax:     make([]float32, width*r.hidden),
		tx:     make([]float32, width*dim),
		axRows: make([][]float32, width),
		txRows: make([][]float32, width),
	}
	for f := 0; f < width; f++ {
		ws.axRows[f] = ws.ax[f*r.hidden : (f+1)*r.hidden]
		ws.txRows[f] = ws.tx[f*dim : (f+1)*dim]
	}
	return ws
}

// scoreWindow implements windowScorer. Phase one batches everything that
// does not depend on the recurrence: each wx row and each template row is
// dotted against all window frames with rowDotLanes (four frames' chains
// interleaved per row — the dot4 ILP batch.go documents). Phase two is the
// inherently sequential remainder, frame by frame: finish the Elman update
// with the wr·h dot (same operand order as the scalar oracle's matVec-then-
// addMatVec: the wx dot completes first, then the wr dot is added), tanh,
// projection, and exponential smoothing. Per (frame, element) the arithmetic
// matches the oracle exactly, so the rows are bitwise-identical.
func (r *RNNScorer) scoreWindow(state windowState, frames, out [][]float32) {
	ws := state.(*rnnWindowState)
	n := len(frames)
	ax, tx := ws.axRows[:n], ws.txRows[:n]
	dim := r.m.Dim
	for i := 0; i < r.hidden; i++ {
		rowDotLanes(r.wx[i*dim:(i+1)*dim], frames, ax, i)
	}
	for s := 1; s <= r.m.NumSenones; s++ {
		rowDotLanes(r.tmpl.tmplW[s], frames, tx, s)
	}
	// The sequential pass runs through the two noinline helpers below rather
	// than inline. That is a register-pressure fix, not style: this function
	// carries ~7 live slice headers (state views, precompute rows, out), and
	// with the dot loops inlined here the register allocator spills the hot
	// loops' induction variables to the stack — a store added to a 6-instr
	// inner loop, measured at ~2x the whole RNN scoring cost. Inside the
	// helpers only a handful of values are live, so the dots get clean
	// register-only loops.
	h, hNew := ws.h, ws.hNew
	for f := 0; f < n; f++ {
		// hNew = tanh((wx·x) + wr·h), the wx half precomputed: seeding with
		// the batched rows and adding the recurrence dots keeps the scalar
		// operand order (per element, the wx dot completes first).
		copy(hNew, ax[f])
		recurrenceStep(hNew, r.wr, h)
		h, hNew = hNew, h
		r.projectSmooth(tx[f], h, out[f], ws.smooth, ws.first)
		ws.first = false
	}
	ws.h, ws.hNew = h, hNew
}

// recurrenceStep finishes one Elman update in place: hNew += wr·h, then
// tanh. The wr rows are dotted with h four at a time (dotRows4): the 256
// dots of a step are independent, so four accumulator chains overlap where
// one chain would wait on each add's latency. noinline so the wr·h dots run
// with only three slice headers live (see scoreWindow).
//
//go:noinline
func recurrenceStep(hNew, wr, h []float32) {
	n := len(h)
	i := 0
	for ; i+4 <= len(hNew); i += 4 {
		s0, s1, s2, s3 := dotRows4(wr[i*n:], n, h)
		hNew[i] += s0
		hNew[i+1] += s1
		hNew[i+2] += s2
		hNew[i+3] += s3
	}
	for ; i < len(hNew); i++ {
		hNew[i] += dot(wr[i*n:(i+1)*n], h)
	}
	tanhInPlace(hNew)
}

// projectSmooth turns one frame's hidden state into its output row: the
// projection dot against each senone's proj row (the template dot t[s] is
// precomputed, the proj rows are dotted four at a time like recurrenceStep's),
// then the exponential smoothing, in the scalar oracle's arithmetic and
// order. noinline for the same register-pressure reason as recurrenceStep.
//
//go:noinline
func (r *RNNScorer) projectSmooth(t, h, row, smooth []float32, first bool) {
	row[0] = unusedScore
	hn := len(h)
	var p [4]float32
	for s := 1; s <= r.m.NumSenones; s += 4 {
		g := min(4, r.m.NumSenones+1-s)
		if g == 4 {
			p[0], p[1], p[2], p[3] = dotRows4(r.proj[s*hn:], hn, h)
		} else {
			for k := 0; k < g; k++ {
				p[k] = dot(r.proj[(s+k)*hn:(s+k+1)*hn], h)
			}
		}
		for k := 0; k < g; k++ {
			raw := (r.tmpl.tmplB[s+k] + t[s+k]) + 0.02*p[k]
			if first {
				smooth[s+k] = raw
			} else {
				smooth[s+k] = (1-r.alpha)*smooth[s+k] + r.alpha*raw
			}
			row[s+k] = smooth[s+k]
		}
	}
}

// dotRows4 returns the dots of x with the four consecutive n-wide rows at the
// start of w. Each sum accumulates in its own register in dot's element
// order, so the results are bitwise-identical to four dot calls — dot4's
// trick with the rows varying instead of the vectors.
func dotRows4(w []float32, n int, x []float32) (s0, s1, s2, s3 float32) {
	x = x[:n]
	w0, w1, w2, w3 := w[:n], w[n:2*n], w[2*n:3*n], w[3*n:4*n]
	for j, xj := range x {
		s0 += w0[j] * xj
		s1 += w1[j] * xj
		s2 += w2[j] * xj
		s3 += w3[j] * xj
	}
	return
}
