//go:build !amd64

package acoustic

// haveAVX2 is never set off amd64: the DNN's and the GMM's stepLanes keep
// their generic dot4/sqDist4 bodies and stepTile is not reached.
var haveAVX2 = false

func (d *DNNScorer) stepTile(st *dnnLaneState, xs, outs [][]float32) {
	panic("acoustic: the tile kernel is amd64-only")
}

func (g *GMMScorer) stepTile(st *gmmLaneState, xs, outs [][]float32) {
	panic("acoustic: the tile kernel is amd64-only")
}
