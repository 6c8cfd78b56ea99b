package acoustic

// The per-frame forward passes the window kernel (window.go) runs, written
// for several frames at once: loops run weight-row-outer / frame-inner, so
// every weight row (GMM component means, DNN matrices, template rows) is
// read once per window and applied to all its frames. The frames of a
// window take the place of SIMD lanes: dot4 and sqDist4 run four frames'
// accumulator chains in parallel registers, and the DNN's and the GMM's
// AVX2 tiles (tile_amd64.go) run sixteen. The loop interchange preserves the
// per-(frame, row) arithmetic exactly — same operands, same order — so it
// changes memory traffic and instruction-level parallelism, never a score.

// ---------------------------------------------------------------------------
// GMM

// gmmLaneState is the GMM's window state: it has no temporal state, but the
// tile path transposes each group of frames into tile (followed by a scratch
// score row for padding lanes) and collects fallback flags in fb (allocated
// the first time the tile runs) — per state, because one scorer is driven
// from many goroutines.
type gmmLaneState struct {
	tile []float32
	fb   []uint16
}

func (*gmmLaneState) Reset() {}

// ScoreDim is the per-frame score-row length (NumSenones+1; index 0 is
// the unused -1e30 slot).
func (g *GMMScorer) ScoreDim() int { return g.m.NumSenones + 1 }

// stepLanes scores each frame of xs into the matching outs row: the GMM's
// one forward pass, reached from scoreWindow. With AVX2 the whole mixture goes through
// the SIMD tile, tileLanes at a time, against scratch in lead.
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

// laneChunk bounds how many frames one generic DNN pass gathers on the
// stack; wider windows run in chunks of this size.
const laneChunk = 32

// tileLanes is the frame count of the SIMD tile (tile_amd64.go): 16 float32
// lanes, two YMM registers.
const tileLanes = 16

// dnnLaneState carries one frame's hidden-stack scratch, each part
// allocated on first use by the kernel path that needs it. The DNN has no
// cross-frame state, but the hidden activations feed the perturbation term
// within a frame, so on the generic path each frame needs its own h and h2.
// tile is the tile path's scratch for the group of frames this one leads.
type dnnLaneState struct {
	h, h2 []float32
	tile  []float32
}

// ScoreDim is the per-frame score-row length (NumSenones+1).
func (d *DNNScorer) ScoreDim() int { return d.m.NumSenones + 1 }

// stepLanes scores up to laneChunk frames: the DNN's one forward pass,
// reached from scoreWindow. With AVX2 the frames go through the SIMD tile,
// tileLanes at a time, a short group zero-padded. Everywhere else four
// frames' dot products are interleaved per row (dot4), so four independent
// accumulator chains hide the floating-point add latency a solo matvec is
// bound by. The layer swap happens on local slice headers (the DNN keeps no
// state across frames, so which buffer ends up as h in the state does not
// matter).
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
// the weight row streams through the cache once instead of four times: a
// solo matvec is latency-bound, the batched version is throughput-bound.
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

// rowDotLanes writes dst[k][i] = dot(w, src[k]) for every frame k, four
// frames at a time, falling back to scalar dot for the remainder.
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

// ScoreDim is the per-frame score-row length (NumSenones+1).
func (r *RNNScorer) ScoreDim() int { return r.m.NumSenones + 1 }
