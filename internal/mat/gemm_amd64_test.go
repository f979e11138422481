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
// of a naive dot, and bit-equal to the single-dot fmaDot1x1 and to the
// matching fmaDotPanel output for the same row and vector, in both of the
// panel's modes (bias base and in-place accumulation).
func TestFMADot4x1(t *testing.T) {
	if !fmaEnabled {
		t.Skip("AVX2+FMA kernels not enabled (no CPU support, or EVFED_PURE_GO=1)")
	}
	r := rng.New(21)
	for n := 0; n <= 67; n++ {
		a := randMat(r, 4, n)
		a.Data = append(a.Data, 0)[:4*n] // head() needs a backing element at n = 0
		b := randMat(r, 2, n)
		b.Data = append(b.Data, 0)[:2*n]
		x := b.Data[: n : n+1]
		bias := randMat(r, 1, 2).Data
		acc := randMat(r, 4, 2)
		biased := NewMatrix(4, 2)
		fmaDotPanel(head(a.Data), head(b.Data), n, 1, &biased.Data[0], 2, &bias[0], 0)
		summed := acc.Clone()
		fmaDotPanel(head(a.Data), head(b.Data), n, 1, &summed.Data[0], 2, &summed.Data[0], 2)
		var got [4]float64
		fmaDot4x1(head(a.Data), head(a.Data[n:]), head(a.Data[2*n:]), head(a.Data[3*n:]), head(x), n, &got)
		for i := 0; i < 4; i++ {
			row := a.Data[i*n : i*n+n]
			var want float64
			for k := range row {
				want += row[k] * x[k]
			}
			if math.Abs(got[i]-want) > 1e-12*float64(n+1) {
				t.Fatalf("n=%d row %d: fmaDot4x1 %v, naive %v", n, i, got[i], want)
			}
			if one := fmaDot1x1(row, x); got[i] != one {
				t.Fatalf("n=%d row %d: fmaDot4x1 %v, fmaDot1x1 %v", n, i, got[i], one)
			}
			if p := biased.At(i, 0); p != bias[0]+got[i] {
				t.Fatalf("n=%d row %d: fmaDotPanel (bias) %v, bias + fmaDot4x1 %v", n, i, p, bias[0]+got[i])
			}
			if p := summed.At(i, 0); p != acc.At(i, 0)+got[i] {
				t.Fatalf("n=%d row %d: fmaDotPanel (accumulate) %v, dst + fmaDot4x1 %v", n, i, p, acc.At(i, 0)+got[i])
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

// TestZMMKernelsMatchAVX2 holds the AVX-512F kernels to their AVX2 forms
// bit for bit: the four-update fold at every length up to 64 that both
// cover, over finite values and over special ones (with an overflowing
// α), and the four-row gradient tile at every n in 8…67 (each 16-column
// strip count and masked remainder) for both coefficient layouts and
// depths 1…9.
func TestZMMKernelsMatchAVX2(t *testing.T) {
	if !avx512Enabled {
		t.Skip("AVX-512F kernels not enabled (no CPU or OS support, or EVFED_PURE_GO=1)")
	}
	r := rng.New(41)
	for trial := 0; trial < 16; trial++ {
		special := trial%2 == 1
		draw := func() float64 {
			if special {
				return specialValue(r)
			}
			return float64(1-2*r.Intn(2)) * math.Pow(10, r.Range(-15, 15))
		}
		alpha := [4]float64{1, -3.5, 57, 0.37}
		if special {
			alpha[2] = 1e300
		}
		n := 8 * (1 + trial/2)
		var src [4][]float64
		for j := range src {
			src[j] = make([]float64, n)
			for i := range src[j] {
				src[j][i] = draw()
			}
		}
		dst, comp := make([]float64, n), make([]float64, n)
		for i := range dst {
			dst[i], comp[i] = draw(), draw()*1e-17
		}
		wantDst, wantComp := append([]float64(nil), dst...), append([]float64(nil), comp...)
		zmmAxpyComp4(&alpha, &dst[0], &comp[0], &src[0][0], &src[1][0], &src[2][0], &src[3][0], n)
		vecAxpyComp4(&alpha, &wantDst[0], &wantComp[0], &src[0][0], &src[1][0], &src[2][0], &src[3][0], n)
		for i := range dst {
			if math.Float64bits(dst[i]) != math.Float64bits(wantDst[i]) ||
				math.Float64bits(comp[i]) != math.Float64bits(wantComp[i]) {
				t.Fatalf("fold n=%d i=%d: zmm (%v, %v), ymm (%v, %v)", n, i, dst[i], comp[i], wantDst[i], wantComp[i])
			}
		}
	}
	for n := 8; n <= 67; n++ {
		for k := 1; k <= 9; k++ {
			for _, transposed := range []bool{false, true} {
				// MulAdd's layout (a is 4×k, lai = k, lak = 1) or
				// MulATAdd's (a is k×4, lai = 1, lak = 4).
				lai, lak := k, 1
				if transposed {
					lai, lak = 1, 4
				}
				a := randMat(r, 4, k).Data
				b := randMat(r, k, n).Data
				// One guard row past the tile: the kernel must not write it.
				got := randMat(r, 5, n).Data
				want := append([]float64(nil), got...)
				zmmTile4(&got[0], &a[0], lai, lak, &b[0], n, k)
				fmaTile4(&want[0], &a[0], lai, lak, &b[0], n, k)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("tile n=%d k=%d transposed=%v element %d: zmm %v, ymm %v",
							n, k, transposed, i, got[i], want[i])
					}
				}
			}
		}
	}
}
