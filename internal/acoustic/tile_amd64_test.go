package acoustic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestDenseTileMatchesDot holds the row kernels to dot lane by lane, by bit
// pattern: every row count from 1 to 19 (rows8x16, rows4x16 and rows1x16
// groups and their remainders) and widths 1, 3, 16 and 67, on the AVX-512
// and the AVX2 row kernels. The scorer-level tests cannot do this alone: a
// hidden activation one ulp off reaches a score only through the 0.02
// perturbation term, where it usually rounds away, so a fused multiply-add
// in a row kernel would pass them.
func TestDenseTileMatchesDot(t *testing.T) {
	if !cpuAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	rng := rand.New(rand.NewSource(44))
	for _, avx512 := range []bool{false, true} {
		t.Run(fmt.Sprintf("avx512=%v", avx512), func(t *testing.T) {
			useAVX512(t, avx512)
			for _, n := range []int{1, 3, 16, 67} {
				x := make([]float32, n*tileLanes)
				for i := range x {
					x[i] = rng.Float32()*2 - 1
				}
				col := make([]float32, n)
				for rows := 1; rows <= 19; rows++ {
					w := make([]float32, rows*n)
					for i := range w {
						w[i] = (rng.Float32()*2 - 1) / float32(n)
					}
					dst := make([]float32, rows*tileLanes)
					denseTile(w, n, x, dst)
					for i := 0; i < rows; i++ {
						for lane := 0; lane < tileLanes; lane++ {
							for j := range col {
								col[j] = x[j*tileLanes+lane]
							}
							want := dot(w[i*n:(i+1)*n], col)
							if got := dst[i*tileLanes+lane]; math.Float32bits(got) != math.Float32bits(want) {
								t.Fatalf("n %d, %d rows: row %d lane %d = %g, dot %g", n, rows, i, lane, got, want)
							}
						}
					}
				}
			}
		})
	}
}
