package acoustic

import "testing"

// The tile's log-sum-exp (LSE4 in tile_amd64.s, reached here through
// lseTile) held to lse.go's two proofs: the same walks, the same operand
// grid, the same billion arguments.

// softplusTile evaluates softplus on the tile as logSumExp2(0, d): for
// d ≤ 0 that is the softplus term itself (no swap, d − 0 = d, 0 + sp = sp).
// A positive d would be swapped to −d, so it is reported undecided, as
// softplusTable reports it; logSumExp2 never hands the table one.
func softplusTile(ds, got []float32, ok []bool) {
	n := (len(ds) + 3) &^ 3
	b := make([]float32, n)
	copy(b, ds)
	out := make([]float32, n)
	fb := make([]uint8, n/4)
	lseTile(&make([]float32, n)[0], &b[0], &out[0], &fb[0], n)
	for i, d := range ds {
		got[i], ok[i] = out[i], fb[i/4]&(1<<(i%4)) == 0 && !(d > 0)
	}
}

// lseTilePair is logSumExp2(a, b) on the tile, or false where the tile
// leaves the pair to logSumExp2Ref.
func lseTilePair(a, b float32) (float32, bool) {
	as, bs := [4]float32{a}, [4]float32{b}
	var out [4]float32
	var fb uint8
	lseTile(&as[0], &bs[0], &out[0], &fb, 4)
	return out[0], fb&1 == 0
}

func TestLogSumExpEdgesTile(t *testing.T) {
	if !cpuAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	checkLogSumExpEdges(t, softplusTile, lseTilePair)
}

// TestLogSumExpExhaustiveTile is TestLogSumExpExhaustive on the tile: every
// float32 in [−16, −0] through LSE4. The tile evaluates lse.go's polynomial
// operation for operation, so it decides what softplusTable decides, with
// the same value; any argument where it does not is compared with the
// reference expression.
func TestLogSumExpExhaustiveTile(t *testing.T) {
	if !cpuAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	checkLogSumExpExhaustive(t, softplusTile)
}
