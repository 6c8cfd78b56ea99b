package acoustic

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
// terms in a different order and round differently. The GMM's squared
// distances ride the same tile (sqDist2x16): a lane is one frame's sqDist.

//go:noescape
func rows4x16(w *float32, n int, x, dst *float32)

//go:noescape
func rows1x16(w *float32, n int, x, dst *float32)

//go:noescape
func reluTile(v *float32, n int)

//go:noescape
func sqDist2x16(mu *float32, n int, x *float32, dst *float64)

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

// stepTile scores one frame for up to 16 compacted lanes: both component
// distances of a senone for all lanes in one sqDist2x16, then the scalar
// mixture per lane. The x tile lives in the leading lane's state; lanes past
// len(xs) are zero-padded and never reach mixture.
func (g *GMMScorer) stepTile(st *gmmLaneState, xs, outs [][]float32) {
	dim := g.m.Dim
	if st.tile == nil {
		st.tile = make([]float32, tileLanes*dim)
	}
	transposeTile(st.tile, xs)
	var sq [2 * tileLanes]float64
	for s := 1; s <= g.m.NumSenones; s++ {
		c := g.comps[s][:2*dim]
		sqDist2x16(&c[0], dim, &st.tile[0], &sq[0])
		for k, o := range outs {
			o[s] = g.mixture(sq[k], sq[tileLanes+k])
		}
	}
}
