//go:build amd64

package mat

import (
	"math"
	"testing"

	"github.com/evfed/evfed/internal/rng"
)

// head returns a pointer to the first element of s's backing array, valid
// even for len(s) == 0 (the kernels read nothing at n = 0).
func head(s []float64) *float64 { return &s[:cap(s)][0] }

// TestFMADot4x1 pins the 4×1 kernel for every depth 0…67 (each remainder
// of the 4-lane loop, with and without a full iteration): within rounding
// of a naive dot, and bit-equal to the matching fmaDot4x2 output and to
// the single-dot fmaDot1x1 for the same row and vector.
func TestFMADot4x1(t *testing.T) {
	if !fmaEnabled {
		t.Skip("AVX2+FMA kernels not enabled (no CPU support, or EVFED_PURE_GO=1)")
	}
	r := rng.New(21)
	for n := 0; n <= 67; n++ {
		rows := make([][]float64, 4)
		for i := range rows {
			rows[i] = make([]float64, n, n+1)
			for k := range rows[i] {
				rows[i][k] = r.Normal(0, 1)
			}
		}
		x := make([]float64, n, n+1)
		y := make([]float64, n, n+1)
		for k := range x {
			x[k], y[k] = r.Normal(0, 1), r.Normal(0, 1)
		}
		var got [4]float64
		fmaDot4x1(head(rows[0]), head(rows[1]), head(rows[2]), head(rows[3]), head(x), n, &got)
		var block [8]float64
		fmaDot4x2(head(rows[0]), head(rows[1]), head(rows[2]), head(rows[3]), head(x), head(y), n, &block)
		for i, row := range rows {
			var want float64
			for k := range row {
				want += row[k] * x[k]
			}
			if math.Abs(got[i]-want) > 1e-12*float64(n+1) {
				t.Fatalf("n=%d row %d: fmaDot4x1 %v, naive %v", n, i, got[i], want)
			}
			if got[i] != block[2*i] {
				t.Fatalf("n=%d row %d: fmaDot4x1 %v, fmaDot4x2 %v", n, i, got[i], block[2*i])
			}
			if one := fmaDot1x1(row, x); got[i] != one {
				t.Fatalf("n=%d row %d: fmaDot4x1 %v, fmaDot1x1 %v", n, i, got[i], one)
			}
		}
	}
}

func TestFMADot4x1AllocFree(t *testing.T) {
	if !fmaEnabled {
		t.Skip("AVX2+FMA kernels not enabled (no CPU support, or EVFED_PURE_GO=1)")
	}
	r := rng.New(22)
	w := randMat(r, 4, 50)
	x := randMat(r, 1, 50).Data
	var out [4]float64
	allocs := testing.AllocsPerRun(100, func() {
		fmaDot4x1(&w.Row(0)[0], &w.Row(1)[0], &w.Row(2)[0], &w.Row(3)[0], &x[0], len(x), &out)
	})
	if allocs != 0 {
		t.Fatalf("fmaDot4x1 allocated %v times per call", allocs)
	}
}
