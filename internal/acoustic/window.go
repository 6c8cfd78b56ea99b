package acoustic

// Window scoring: ScoreUtterance's 16-frame block kernel. Where ScoreStep
// advances N different utterances by one frame, ScoreWindow advances ONE
// utterance by up to `width` consecutive frames in a single call, so every
// weight row is read once per block of frames instead of once per frame.
//
// The batching trick is the same loop interchange as batch.go, rotated 90°:
// frames of one utterance take the place of lanes. For the stateless
// scorers (GMM, DNN) consecutive frames are fully independent, so a window
// IS a lane batch — ScoreWindow feeds the window's frames through ScoreStep
// against per-frame scratch states (the GMM, which has none, straight into
// ScoreStep's stepLanes) and inherits its kernels (the AVX2 tile, or
// sqDist4/dot4 without it) and its bitwise-equality proof for free. The
// RNN's recurrence is sequential
// across frames, but its input-side work is not: the wx·x rows and the
// template tw·x rows depend only on the frame's features, so ScoreWindow
// precomputes both across the whole window with rowDotLanes/dot4, then runs
// the cheap sequential part (wr·h recurrence, projection, smoothing) frame
// by frame.
//
// The contract is the same bitwise equality that makes lanes safe: the rows
// produced by consecutive ScoreWindow calls over an utterance's frames are
// float32-identical to scoring the utterance one frame at a time (the scalar
// oracle in scalar_test.go) — same operands, same order, per (frame,
// element), at any window width. TestScoreWindowMatchesUtterance locks this
// down for all three scorers.
//
// ScoreUtterance is this kernel driven to completion: scoreBlocked
// (scorer.go), its only caller, walks the utterance through ScoreWindow in
// scoreBlock-wide windows against a pooled window state.

// windowScorer is a BatchScorer that can additionally score a window of
// consecutive frames of one utterance in a single call.
type windowScorer interface {
	BatchScorer
	// NewWindowState allocates the state for scoring one utterance through
	// windows of at most width frames: the recurrent state (RNN) plus all
	// per-window scratch, so ScoreWindow itself allocates nothing. Reset
	// reinitializes it for a new utterance.
	NewWindowState(width int) LaneState
	// ScoreWindow scores len(frames) consecutive frames of one utterance,
	// writing frame i's scores into out[i] (length ScoreDim, 1-based senone
	// indexing). frames and out are index-aligned; len(frames) must be at
	// most the width the state was built for. Successive calls continue the
	// same utterance (the recurrence carries across calls), exactly as if
	// ScoreUtterance had been called on the concatenated frames.
	//
	// Like ScoreStep, ScoreWindow touches only the state and the out rows,
	// so it may run concurrently with ScoreUtterance/ScoreStep calls on the
	// same scorer (model weights are read-only after construction). This is
	// what keeps ScoreUtterance safe for concurrent use: each call scores its
	// blocks against a window state of its own.
	ScoreWindow(state LaneState, frames, out [][]float32)
}

// ---------------------------------------------------------------------------
// GMM

// NewWindowState implements windowScorer: the stateless GMM needs only the
// tile scratch a lane state carries, whatever the width.
func (g *GMMScorer) NewWindowState(width int) LaneState { return g.NewLaneState() }

// ScoreWindow implements windowScorer: the GMM has no cross-frame state, so
// the window's frames are a compacted lane batch as they stand and go
// straight to stepLanes — senone-outer, frame-inner, each component-mean
// row read once per window.
func (g *GMMScorer) ScoreWindow(state LaneState, frames, out [][]float32) {
	g.stepLanes(state.(*gmmLaneState), frames, out)
}

// ---------------------------------------------------------------------------
// DNN

// dnnWindowState holds one lane state per window frame; the DNN keeps no
// state across frames, but each frame's hidden activations feed its own
// perturbation term, so the "lanes" need separate buffers (on the tile path
// each group of 16 shares the tile its first state carries).
type dnnWindowState struct {
	states []LaneState
}

func (*dnnWindowState) Reset() {}

// NewWindowState implements windowScorer.
func (d *DNNScorer) NewWindowState(width int) LaneState {
	ws := &dnnWindowState{states: make([]LaneState, width)}
	for i := range ws.states {
		ws.states[i] = d.NewLaneState()
	}
	return ws
}

// ScoreWindow implements windowScorer: frames are independent, so the window
// runs as a lane batch through ScoreStep — every weight row of w1/wh and
// every template/projection row streams through the cache once per window
// and meets the frames as the lanes of a SIMD tile (or, without AVX2, four
// at a time through dot4). Per frame the arithmetic is exactly a solo matvec
// pass's.
func (d *DNNScorer) ScoreWindow(state LaneState, frames, out [][]float32) {
	ws := state.(*dnnWindowState)
	d.ScoreStep(ws.states[:len(frames)], frames, out)
}

// ---------------------------------------------------------------------------
// RNN

// rnnWindowState is the recurrence state plus the window-wide precompute
// buffers: ax[f][i] collects the input-projection dots (wx row i · frame f)
// and tx[f][s] the template dots (tmplW row s · frame f) for every frame of
// the current window before the sequential pass consumes them.
type rnnWindowState struct {
	rnnLaneState
	ax []float32 // width x hidden, row-major per frame
	tx []float32 // width x (senones+1), row-major per frame
	// Row views over ax/tx, shaped for rowDotLanes.
	axRows [][]float32
	txRows [][]float32
}

// NewWindowState implements windowScorer.
func (r *RNNScorer) NewWindowState(width int) LaneState {
	dim := r.m.NumSenones + 1
	ws := &rnnWindowState{
		rnnLaneState: rnnLaneState{
			h:      make([]float32, r.hidden),
			hNew:   make([]float32, r.hidden),
			smooth: make([]float32, dim),
			first:  true,
		},
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

// ScoreWindow implements windowScorer. Phase one batches everything that
// does not depend on the recurrence: each wx row and each template row is
// dotted against all window frames with rowDotLanes (four frames' chains
// interleaved per row — the dot4 ILP batch.go documents). Phase two is the
// inherently sequential remainder, frame by frame: finish the Elman update
// with the wr·h dot (same operand order as the scalar oracle's matVec-then-
// addMatVec: the wx dot completes first, then the wr dot is added), tanh,
// projection, and exponential smoothing. Per (frame, element) the arithmetic
// matches the oracle exactly, so the rows are bitwise-identical.
func (r *RNNScorer) ScoreWindow(state LaneState, frames, out [][]float32) {
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
// tanh. noinline so the wr·h dots run with only three slice headers live
// (see ScoreWindow).
//
//go:noinline
func recurrenceStep(hNew, wr, h []float32) {
	addMatVec(hNew, wr, h)
	tanhInPlace(hNew)
}

// projectSmooth turns one frame's hidden state into its output row: the
// projection dot against each senone's proj row (the template dot t[s] is
// precomputed), then the exponential smoothing, in the scalar oracle's
// arithmetic and order. noinline for the same register-pressure reason as
// recurrenceStep.
//
//go:noinline
func (r *RNNScorer) projectSmooth(t, h, row, smooth []float32, first bool) {
	row[0] = unusedScore
	hn := len(h)
	for s := 1; s <= r.m.NumSenones; s++ {
		raw := (r.tmpl.tmplB[s] + t[s]) + 0.02*dot(r.proj[s*hn:(s+1)*hn], h)
		if first {
			smooth[s] = raw
		} else {
			smooth[s] = (1-r.alpha)*smooth[s] + r.alpha*raw
		}
		row[s] = smooth[s]
	}
}
