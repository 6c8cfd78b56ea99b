package acoustic

import "math/bits"

// The DNN and GMM forward passes on a 16-frame tile, for amd64 CPUs with
// AVX2.
//
// dot4 (batch.go) interleaves four frames' scalar dot products; the tile
// makes the frames SIMD lanes instead. A block's features are transposed
// once into frame-minor layout, xT[j*16+lane], and every weight row i then
// yields hT[i*16:(i+1)*16] = Σ_j w[i][j]·xT[j][·] with all 16 frames in two
// YMM registers — already the next layer's input layout, so nothing is
// transposed again until the scores leave.
//
// Lanes across frames is bit-exact where lanes across j is not: a lane here
// is one frame's whole dot product, accumulated from zero in j order with a
// separate multiply and add, which is dot's arithmetic operation for
// operation. Splitting one dot product's j range over lanes would add its
// terms in a different order and round differently. The GMM rides the same
// tile whole (gmmTile): a lane is one frame's sqDist, then mixture's
// log-densities and logSumExp2's table, four float64 lanes at a time.

//go:noescape
func rows4x16(w *float32, n int, x, dst *float32)

//go:noescape
func rows1x16(w *float32, n int, x, dst *float32)

//go:noescape
func reluTile(v *float32, n int)

//go:noescape
func gmmTile(mu *float32, dim, senones int, x *float32, rows *[tileLanes]*float32, fb *uint16, variance, norm float64, lw float32)

//go:noescape
func gmmSenones(mu *float32, dim int, idx *[tileLanes]int32, x *float32, rows *[tileLanes]*float32, fb *uint16, variance, norm float64, lw float32)

// lseTile runs the tile's log-sum-exp alone, for the tests that hold it to
// lse.go's proofs.
//
//go:noescape
func lseTile(a, b, dst *float32, fb *uint8, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// haveAVX2 routes the DNN's and the GMM's stepLanes to the tile. Read once
// here; the tests flip it to run both kernel paths on one machine.
var haveAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// state across context switches (OSXSAVE set and XCR0 enabling SSE + AVX).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// denseTile sets dst[i*16+lane] = Σ_j w[i*n+j]·x[j*16+lane] for the
// len(dst)/16 rows of w: four rows per kernel call, the remainder one at a
// time. The reslicing is the bounds check the kernels do not make.
func denseTile(w []float32, n int, x, dst []float32) {
	rows := len(dst) / tileLanes
	w, x, dst = w[:rows*n], x[:n*tileLanes], dst[:rows*tileLanes]
	i := 0
	for ; i+4 <= rows; i += 4 {
		rows4x16(&w[i*n], n, &x[0], &dst[i*tileLanes])
	}
	for ; i < rows; i++ {
		rows1x16(&w[i*n], n, &x[0], &dst[i*tileLanes])
	}
}

// transposeTile lays up to 16 frames out frame-minor, xT[j*16+lane], lanes
// past len(xs) zeroed.
func transposeTile(xT []float32, xs [][]float32) {
	for j := 0; j < len(xT)/tileLanes; j++ {
		col := xT[j*tileLanes : (j+1)*tileLanes]
		for k, x := range xs {
			col[k] = x[j]
		}
		clear(col[len(xs):])
	}
}

// stepTile scores one frame for up to 16 compacted lanes through the tile
// kernels. The x, h and h2 tiles live in the leading lane's state (grown
// the first time it leads); lanes past len(xs) are zero-padded and their
// results dropped.
func (d *DNNScorer) stepTile(st *dnnLaneState, xs, outs [][]float32) {
	dim, hid := d.m.Dim, d.hidden
	if st.tile == nil {
		st.tile = make([]float32, tileLanes*(dim+2*hid))
	}
	xT := st.tile[:tileLanes*dim]
	hT := st.tile[tileLanes*dim:][:tileLanes*hid]
	h2T := st.tile[tileLanes*(dim+hid):]
	transposeTile(xT, xs)

	denseTile(d.w1, dim, xT, hT)
	reluTile(&hT[0], len(hT))
	for l := 1; l < d.layers; l++ {
		denseTile(d.wh, hid, hT, h2T)
		reluTile(&h2T[0], len(h2T))
		hT, h2T = h2T, hT
	}

	// Output layer, four senones at a time: their proj rows are contiguous
	// (one rows4x16), their template rows are separate slices.
	var ts, ps [4 * tileLanes]float32
	for _, o := range outs {
		o[0] = unusedScore
	}
	for s := 1; s <= d.m.NumSenones; s += 4 {
		g := min(4, d.m.NumSenones+1-s)
		denseTile(d.proj[s*hid:], hid, hT, ps[:g*tileLanes])
		for i := 0; i < g; i++ {
			denseTile(d.tmplW[s+i], dim, xT, ts[i*tileLanes:(i+1)*tileLanes])
			tb := d.tmplB[s+i]
			for k, o := range outs {
				o[s+i] = (tb + ts[i*tileLanes+k]) + d.perturb*ps[i*tileLanes+k]
			}
		}
	}
}

// stepTile scores one frame for up to 16 compacted lanes: one gmmTile call
// runs every senone's distances, log-densities and table log-sum-exp for
// all lanes, writing straight into the out rows (padding lanes into a
// scratch row), and the few lanes it flags take the scalar mixture, whose
// logSumExp2 falls back to the reference expression. The x tile, the flags
// and the scratch row live in the leading lane's state.
func (g *GMMScorer) stepTile(st *gmmLaneState, xs, outs [][]float32) {
	dim, ns := g.m.Dim, g.m.NumSenones
	if st.tile == nil {
		st.tile = make([]float32, tileLanes*dim+ns+1)
		st.fb = make([]uint16, ns)
	}
	xT, pad := st.tile[:tileLanes*dim], st.tile[tileLanes*dim:]
	transposeTile(xT, xs)
	var rows [tileLanes]*float32
	for k := range rows {
		rows[k] = &pad[0]
	}
	for k, o := range outs {
		rows[k] = &o[:ns+1][0]
	}
	gmmTile(&g.means[2*dim], dim, ns, &xT[0], &rows, &st.fb[0], g.variance, g.norm, g.lw)
	live := uint16(1)<<len(xs) - 1
	for i, fb := range st.fb {
		for fb &= live; fb != 0; fb &= fb - 1 {
			k := bits.TrailingZeros16(fb)
			c := g.comps[i+1]
			outs[k][i+1] = g.mixture(sqDist(c[:dim], xs[k]), sqDist(c[dim:], xs[k]))
		}
	}
}

// senoneTile is ScoreSenones on the tile: need's senones sixteen at a time
// as the lanes of one gmmSenones call, each lane writing straight into its
// row entry. Lanes past the end of need score senone 0's zeroed means into
// a scratch float, and the few lanes the kernel flags take the scalar
// mixture, as in stepTile.
func (g *GMMScorer) senoneTile(x []float32, need []int32, row []float32) {
	dim := g.m.Dim
	x = x[:dim]
	var pad float32
	for k := 0; k < len(need); k += tileLanes {
		lanes := need[k:min(k+tileLanes, len(need))]
		var idx [tileLanes]int32
		var rows [tileLanes]*float32
		for l, s := range lanes {
			_ = g.comps[s] // the kernel's gathers are not bounds-checked
			idx[l] = s * int32(2*dim)
			rows[l] = &row[s]
		}
		for l := len(lanes); l < tileLanes; l++ {
			rows[l] = &pad
		}
		var fb uint16
		gmmSenones(&g.means[0], dim, &idx, &x[0], &rows, &fb, g.variance, g.norm, g.lw)
		for fb &= uint16(1)<<len(lanes) - 1; fb != 0; fb &= fb - 1 {
			s := lanes[bits.TrailingZeros16(fb)]
			c := g.comps[s]
			row[s] = g.mixture(sqDist(c[:dim], x), sqDist(c[dim:], x))
		}
	}
}
