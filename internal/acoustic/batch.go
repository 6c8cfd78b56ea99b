package acoustic

// Batched frame-synchronous scoring: the dense half of the lane-group
// decoder (see internal/decoder/lane.go). Where ScoreUtterance scores one
// utterance front to back, ScoreStep advances N utterances by ONE frame in
// a single call, looping weight-row-outer / lane-inner so every weight row
// (GMM component means, DNN/RNN matrices, template rows) is read once per
// step and applied to all active lanes — dense matrix work instead of N
// independent vector passes.
//
// The contract that makes lanes safe to ship is bitwise equality: for every
// lane, the sequence of rows produced by repeated ScoreStep calls is
// float32-identical to the rows ScoreUtterance produces for that lane's
// frames alone. The loop interchange preserves the per-(lane,row) dot
// products exactly — same operands, same order — so batching changes memory
// traffic and instruction-level parallelism (dot4 and sqDist4 run four
// lanes' accumulator chains in parallel registers; the DNN's and the GMM's
// AVX2 tiles run sixteen as SIMD lanes), never the per-lane arithmetic.
// TestScoreStepMatchesUtterance locks this down for all three scorers.

// LaneState holds one lane's recurrent scorer state (and any per-lane
// scratch). A state belongs to exactly one lane slot; Reset reinitializes it
// when a new utterance joins the slot. States are confined to the goroutine
// driving ScoreStep, so none of this needs locking.
type LaneState interface {
	Reset()
}

// BatchScorer is a Scorer that can additionally advance many utterances in
// lockstep, one frame per call.
type BatchScorer interface {
	Scorer
	// ScoreDim is the per-frame score-row length (NumSenones+1; index 0 is
	// the unused -1e30 slot). Callers size the out rows with it.
	ScoreDim() int
	// NewLaneState allocates one lane's state: the recurrent scorer's
	// hidden state, the stateless scorers' per-lane scratch.
	NewLaneState() LaneState
	// ScoreStep scores one frame per lane: frames[i] is lane i's next
	// feature vector, or nil for an idle lane (skipped entirely — its state
	// does not advance). The scores for lane i are written into out[i],
	// which must have length ScoreDim. states, frames and out are
	// index-aligned and must all have the same length.
	//
	// ScoreStep allocates nothing once warm (a GMM or DNN lane state grows
	// its scratch the first time it needs it) and touches only the per-lane
	// states and out rows, so it may run concurrently with ScoreUtterance
	// calls on the same scorer (model weights are read-only after
	// construction).
	ScoreStep(states []LaneState, frames [][]float32, out [][]float32)
}

// ---------------------------------------------------------------------------
// GMM

// gmmLaneState is one lane's scratch: the GMM has no temporal state, but the
// tile path transposes each group's frames into tile (followed by a scratch
// score row for padding lanes) and collects fallback flags in fb, both in
// the state of the lane that leads the group (allocated the first time it
// leads) — per lane, because one scorer's lanes are driven from many
// goroutines.
type gmmLaneState struct {
	tile []float32
	fb   []uint16
}

func (*gmmLaneState) Reset() {}

// ScoreDim implements BatchScorer.
func (g *GMMScorer) ScoreDim() int { return g.m.NumSenones + 1 }

// NewLaneState implements BatchScorer.
func (g *GMMScorer) NewLaneState() LaneState { return &gmmLaneState{} }

// ScoreStep implements BatchScorer: active lanes are compacted, then the
// mixture runs senone-outer / lane-inner, so each senone's two
// component-mean rows are loaded once and scored against every active lane's
// frame — sixteen lanes per row pair on the AVX2 tile, otherwise four lanes'
// squared distances interleaved per row (sqDist4).
func (g *GMMScorer) ScoreStep(states []LaneState, frames [][]float32, out [][]float32) {
	var xs, outs [laneChunk][]float32
	for base := 0; base < len(frames); base += laneChunk {
		end := min(base+laneChunk, len(frames))
		var lead *gmmLaneState
		n := 0
		for lane := base; lane < end; lane++ {
			if x := frames[lane]; x != nil {
				if n == 0 {
					lead = states[lane].(*gmmLaneState)
				}
				xs[n], outs[n] = x, out[lane]
				n++
			}
		}
		if n > 0 {
			g.stepLanes(lead, xs[:n], outs[:n])
		}
	}
}

// stepLanes scores one frame for n compacted lanes: the GMM's one forward
// pass, reached from ScoreStep, from ScoreWindow and through it from
// ScoreUtterance. With AVX2 the whole mixture goes through the SIMD tile,
// tileLanes at a time, against scratch in the leading lane's state.
func (g *GMMScorer) stepLanes(lead *gmmLaneState, xs, outs [][]float32) {
	dim := g.m.Dim
	for _, o := range outs {
		o[0] = unusedScore
	}
	if haveAVX2 {
		for k := 0; k < len(xs); k += tileLanes {
			end := min(k+tileLanes, len(xs))
			g.stepTile(lead, xs[k:end], outs[k:end])
		}
		return
	}
	var lo, hi [4]float64
	for s := 1; s <= g.m.NumSenones; s++ {
		c := g.comps[s]
		c1, c2 := c[:dim], c[dim:]
		k := 0
		for ; k+4 <= len(xs); k += 4 {
			lo[0], lo[1], lo[2], lo[3] = sqDist4(c1, xs[k], xs[k+1], xs[k+2], xs[k+3])
			hi[0], hi[1], hi[2], hi[3] = sqDist4(c2, xs[k], xs[k+1], xs[k+2], xs[k+3])
			for j := 0; j < 4; j++ {
				outs[k+j][s] = g.mixture(lo[j], hi[j])
			}
		}
		for ; k < len(xs); k++ {
			outs[k][s] = g.mixture(sqDist(c1, xs[k]), sqDist(c2, xs[k]))
		}
	}
}

// mixture turns a frame's squared distances to a senone's two component
// means into the mixture log-likelihood: each component's isotropic
// log-density -0.5·sq/σ² - 0.5·dim·log(2πσ²) plus the log mixture weight,
// combined with a stable log-sum-exp.
func (g *GMMScorer) mixture(sq1, sq2 float64) float32 {
	l1 := float32(-0.5*sq1/g.variance-g.norm) + g.lw
	l2 := float32(-0.5*sq2/g.variance-g.norm) + g.lw
	return logSumExp2(l1, l2)
}

// sqDist returns ‖x−mu‖², differences taken in float32 and accumulated in
// float64.
func sqDist(mu, x []float32) float64 {
	x = x[:len(mu)]
	var sq float64
	for j, m := range mu {
		diff := float64(x[j] - m)
		sq += diff * diff
	}
	return sq
}

// sqDist4 is sqDist for four frames against one shared mean row: each
// frame's sum accumulates in its own register in sqDist's element order, so
// the results are bitwise-identical to four sqDist calls while the four
// independent add chains overlap (the dot4 trick, see below).
func sqDist4(mu, a, b, c, d []float32) (s0, s1, s2, s3 float64) {
	a = a[:len(mu)]
	b = b[:len(mu)]
	c = c[:len(mu)]
	d = d[:len(mu)]
	for j, m := range mu {
		d0 := float64(a[j] - m)
		d1 := float64(b[j] - m)
		d2 := float64(c[j] - m)
		d3 := float64(d[j] - m)
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return
}

// ---------------------------------------------------------------------------
// DNN

// laneChunk bounds how many active lanes one dense pass gathers. Active
// lanes are compacted into stack arrays of this size, so the hot row loops
// run over dense slices with no per-(row,lane) interface dispatch or nil
// checks; groups wider than this re-read the weight rows once per chunk.
const laneChunk = 32

// tileLanes is the frame count of the SIMD tile (tile_amd64.go): 16 float32
// lanes, two YMM registers.
const tileLanes = 16

// dnnLaneState carries one lane's hidden-stack scratch, each part allocated
// on first use by the kernel path that needs it. The DNN has no cross-frame
// state, but the hidden activations feed the perturbation term within a
// frame, so on the generic path each lane needs its own h and h2. tile is
// the tile path's scratch for the lanes this one leads.
type dnnLaneState struct {
	h, h2 []float32
	tile  []float32
}

func (l *dnnLaneState) Reset() {}

// ScoreDim implements BatchScorer.
func (d *DNNScorer) ScoreDim() int { return d.m.NumSenones + 1 }

// NewLaneState implements BatchScorer.
func (d *DNNScorer) NewLaneState() LaneState { return &dnnLaneState{} }

// ScoreStep implements BatchScorer. Active lanes are compacted, then each
// layer runs row-outer / lane-inner: one pass over w1 (then wh, then the
// template + projection rows) serves every active lane — dense matrix work
// instead of N vector passes. Per lane the operations and their order match
// ScoreUtterance exactly.
func (d *DNNScorer) ScoreStep(states []LaneState, frames [][]float32, out [][]float32) {
	var sts [laneChunk]*dnnLaneState
	var xs, outs [laneChunk][]float32
	for base := 0; base < len(frames); base += laneChunk {
		end := min(base+laneChunk, len(frames))
		n := 0
		for lane := base; lane < end; lane++ {
			x := frames[lane]
			if x == nil {
				continue
			}
			sts[n], xs[n], outs[n] = states[lane].(*dnnLaneState), x, out[lane]
			n++
		}
		if n > 0 {
			d.stepLanes(sts[:n], xs[:n], outs[:n])
		}
	}
}

// stepLanes scores one frame for n compacted lanes: the DNN's one forward
// pass, reached from ScoreStep and (through it) ScoreWindow and
// ScoreUtterance. With AVX2 the lanes go through the SIMD tile, tileLanes at
// a time, a short group zero-padded. Everywhere else four lanes' dot
// products are interleaved per row (dot4), so four independent accumulator
// chains hide the floating-point add latency a solo matvec is bound by. The
// layer swap happens on local slice headers (the DNN keeps no state across
// frames, so which buffer ends up as h in the lane state does not matter).
func (d *DNNScorer) stepLanes(sts []*dnnLaneState, xs, outs [][]float32) {
	if haveAVX2 {
		for k := 0; k < len(xs); k += tileLanes {
			end := min(k+tileLanes, len(xs))
			d.stepTile(sts[k], xs[k:end], outs[k:end])
		}
		return
	}
	var hbuf, h2buf [laneChunk][]float32
	for k, st := range sts {
		if st.h == nil {
			st.h, st.h2 = make([]float32, d.hidden), make([]float32, d.hidden)
		}
		hbuf[k], h2buf[k] = st.h, st.h2
	}
	hs, h2s := hbuf[:len(sts)], h2buf[:len(sts)]
	dim := d.m.Dim
	for i := 0; i < d.hidden; i++ {
		rowDotLanes(d.w1[i*dim:(i+1)*dim], xs, hs, i)
	}
	for _, h := range hs {
		reluInPlace(h)
	}
	for l := 1; l < d.layers; l++ {
		for i := 0; i < d.hidden; i++ {
			rowDotLanes(d.wh[i*d.hidden:(i+1)*d.hidden], hs, h2s, i)
		}
		for k, h2 := range h2s {
			reluInPlace(h2)
			hs[k], h2s[k] = h2, hs[k]
		}
	}
	var ts, ps [4]float32
	for _, o := range outs {
		o[0] = unusedScore
	}
	for s := 1; s <= d.m.NumSenones; s++ {
		tw := d.tmplW[s]
		tb := d.tmplB[s]
		pr := d.proj[s*d.hidden : (s+1)*d.hidden]
		k := 0
		for ; k+4 <= len(xs); k += 4 {
			ts[0], ts[1], ts[2], ts[3] = dot4(tw, xs[k], xs[k+1], xs[k+2], xs[k+3])
			ps[0], ps[1], ps[2], ps[3] = dot4(pr, hs[k], hs[k+1], hs[k+2], hs[k+3])
			for j := 0; j < 4; j++ {
				outs[k+j][s] = (tb + ts[j]) + d.perturb*ps[j]
			}
		}
		for ; k < len(xs); k++ {
			t := tb + dot(tw, xs[k])
			p := dot(pr, hs[k])
			outs[k][s] = t + d.perturb*p
		}
	}
}

// dot4 computes four dot products against one shared weight row:
// s_k = Σ_j w[j]·v_k[j]. Each lane's sum accumulates in its own register in
// the same element order as dot, so the results are bitwise-identical to
// four scalar dot calls — but the four independent add chains fill the FPU
// pipeline where a single chain stalls on floating-point add latency, and
// the weight row streams through the cache once instead of four times. This
// is where the lane group's dense-scoring speedup comes from: a solo matvec
// is latency-bound, the batched version is throughput-bound.
func dot4(w, a, b, c, d []float32) (s0, s1, s2, s3 float32) {
	a = a[:len(w)]
	b = b[:len(w)]
	c = c[:len(w)]
	d = d[:len(w)]
	for j, wj := range w {
		s0 += wj * a[j]
		s1 += wj * b[j]
		s2 += wj * c[j]
		s3 += wj * d[j]
	}
	return
}

// rowDotLanes writes dst[k][i] = dot(w, src[k]) for every compacted lane,
// four lanes at a time, falling back to scalar dot for the remainder.
func rowDotLanes(w []float32, src, dst [][]float32, i int) {
	k := 0
	for ; k+4 <= len(src); k += 4 {
		s0, s1, s2, s3 := dot4(w, src[k], src[k+1], src[k+2], src[k+3])
		dst[k][i], dst[k+1][i], dst[k+2][i], dst[k+3][i] = s0, s1, s2, s3
	}
	for ; k < len(src); k++ {
		dst[k][i] = dot(w, src[k])
	}
}

// ---------------------------------------------------------------------------
// RNN

// rnnLaneState is one lane's Elman recurrence state plus the exponential
// score smoother — the per-utterance locals of a frame-at-a-time pass, lifted
// into a slot so the recurrence survives across ScoreStep calls.
type rnnLaneState struct {
	h, hNew []float32
	smooth  []float32
	first   bool
}

func (l *rnnLaneState) Reset() {
	clear(l.h)
	l.first = true
}

// ScoreDim implements BatchScorer.
func (r *RNNScorer) ScoreDim() int { return r.m.NumSenones + 1 }

// NewLaneState implements BatchScorer.
func (r *RNNScorer) NewLaneState() LaneState {
	return &rnnLaneState{
		h:      make([]float32, r.hidden),
		hNew:   make([]float32, r.hidden),
		smooth: make([]float32, r.m.NumSenones+1),
		first:  true,
	}
}

// ScoreStep implements BatchScorer: active lanes are compacted, then the
// recurrence and the output layer run row-outer / lane-inner over wx, wr,
// the template rows and proj, four lanes' dot products interleaved per row
// (dot4). Per lane and per element the operand order matches ScoreUtterance
// (each hNew[i] is the wx-row dot completed first, then the wr-row dot
// added), so the smoothed rows are bitwise-identical to a solo pass over
// the same frames.
func (r *RNNScorer) ScoreStep(states []LaneState, frames [][]float32, out [][]float32) {
	var sts [laneChunk]*rnnLaneState
	var xs, outs [laneChunk][]float32
	for base := 0; base < len(frames); base += laneChunk {
		end := base + laneChunk
		if end > len(frames) {
			end = len(frames)
		}
		n := 0
		for lane := base; lane < end; lane++ {
			x := frames[lane]
			if x == nil {
				continue
			}
			sts[n], xs[n], outs[n] = states[lane].(*rnnLaneState), x, out[lane]
			n++
		}
		if n > 0 {
			r.stepLanes(sts[:n], xs[:n], outs[:n])
		}
	}
}

// stepLanes advances the recurrence one frame for n compacted lanes.
func (r *RNNScorer) stepLanes(sts []*rnnLaneState, xs, outs [][]float32) {
	dim := r.m.Dim
	var hs, hNews [laneChunk][]float32
	for k, st := range sts {
		hs[k], hNews[k] = st.h, st.hNew
	}
	var as, bs [4]float32
	for i := 0; i < r.hidden; i++ {
		wx := r.wx[i*dim : (i+1)*dim]
		wr := r.wr[i*r.hidden : (i+1)*r.hidden]
		k := 0
		for ; k+4 <= len(sts); k += 4 {
			as[0], as[1], as[2], as[3] = dot4(wx, xs[k], xs[k+1], xs[k+2], xs[k+3])
			bs[0], bs[1], bs[2], bs[3] = dot4(wr, hs[k], hs[k+1], hs[k+2], hs[k+3])
			hNews[k][i] = as[0] + bs[0]
			hNews[k+1][i] = as[1] + bs[1]
			hNews[k+2][i] = as[2] + bs[2]
			hNews[k+3][i] = as[3] + bs[3]
		}
		for ; k < len(sts); k++ {
			hNews[k][i] = dot(wx, xs[k]) + dot(wr, hs[k])
		}
	}
	for k, st := range sts {
		tanhInPlace(st.hNew)
		st.h, st.hNew = st.hNew, st.h
		hs[k] = st.h
		outs[k][0] = unusedScore
	}
	for s := 1; s <= r.m.NumSenones; s++ {
		tw := r.tmpl.tmplW[s]
		tb := r.tmpl.tmplB[s]
		pr := r.proj[s*r.hidden : (s+1)*r.hidden]
		k := 0
		for ; k+4 <= len(sts); k += 4 {
			as[0], as[1], as[2], as[3] = dot4(tw, xs[k], xs[k+1], xs[k+2], xs[k+3])
			bs[0], bs[1], bs[2], bs[3] = dot4(pr, hs[k], hs[k+1], hs[k+2], hs[k+3])
			for j := 0; j < 4; j++ {
				st := sts[k+j]
				raw := (tb + as[j]) + 0.02*bs[j]
				if st.first {
					st.smooth[s] = raw
				} else {
					st.smooth[s] = (1-r.alpha)*st.smooth[s] + r.alpha*raw
				}
				outs[k+j][s] = st.smooth[s]
			}
		}
		for ; k < len(sts); k++ {
			st := sts[k]
			t := tb + dot(tw, xs[k])
			p := dot(pr, hs[k])
			raw := t + 0.02*p
			if st.first {
				st.smooth[s] = raw
			} else {
				st.smooth[s] = (1-r.alpha)*st.smooth[s] + r.alpha*raw
			}
			outs[k][s] = st.smooth[s]
		}
	}
	for _, st := range sts {
		st.first = false
	}
}
