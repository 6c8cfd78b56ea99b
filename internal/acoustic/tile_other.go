//go:build !amd64

package acoustic

// haveAVX2 is never set off amd64: DNNScorer.stepLanes keeps its generic
// dot4 body and stepTile is not reached.
var haveAVX2 = false

func (d *DNNScorer) stepTile(st *dnnLaneState, xs, outs [][]float32) {
	panic("acoustic: the tile kernel is amd64-only")
}
