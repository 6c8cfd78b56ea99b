//go:build !amd64

package acoustic

// haveAVX2 and haveAVX512 are never set off amd64: the DNN's and the GMM's stepLanes keep
// their generic dot4/sqDist4 bodies, ScoreSenones its per-senone mixture,
// and neither stepTile nor senoneTile is reached.
var haveAVX2, haveAVX512 = false, false

func (d *DNNScorer) stepTile(st *dnnLaneState, xs, outs [][]float32) {
	panic("acoustic: the tile kernel is amd64-only")
}

func (g *GMMScorer) stepTile(st *gmmLaneState, xs, outs [][]float32) {
	panic("acoustic: the tile kernel is amd64-only")
}

func (g *GMMScorer) senoneTile(x []float32, need []int32, row []float32) {
	panic("acoustic: the tile kernel is amd64-only")
}
