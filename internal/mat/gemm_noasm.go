//go:build !amd64

package mat

// Non-amd64 builds always run the portable scalar micro-kernels.
const fmaEnabled = false

// dotPanel leaves every column pair to the scalar dot4x2 loop.
func dotPanel(a, b []float64, k, ncols int, d []float64, ldd int, base []float64, ldbase int) int {
	return 0
}

func dotQuad(r0, r1, r2, r3, x []float64) (s0, s1, s2, s3 float64) {
	return dot4x1(r0, r1, r2, r3, x)
}

func dotOne(a, x []float64) float64 { return dot1x1(a, x) }

// gradTile leaves every row to the scalar axpy2x4 loops.
func gradTile(d []float64, rows, n int, a []float64, lai, lak int, b []float64, k int) int {
	return 0
}

// biasOuter leaves the depth-1 MulTBias to the scalar loop.
func biasOuter(d, a, b, bias []float64) bool { return false }

// axpyCompVec leaves the whole of AxpyComp to the scalar loop.
func axpyCompVec(alpha float64, dst, comp, src []float64) int { return 0 }

// axpyComp4Vec leaves the whole of AxpyComp4 to the scalar loop.
func axpyComp4Vec(alpha *[4]float64, dst, comp []float64, src *[4][]float64) int { return 0 }

// finitePrefix proves nothing finite; FirstNonFinite scans all of v.
func finitePrefix(v []float64) int { return 0 }

// SigmoidPanel is the batched-path logistic function; without the FMA
// kernels it is exactly SigmoidInPlace.
func SigmoidPanel(v []float64) { SigmoidInPlace(v) }

// TanhPanel is the batched-path tanh; without the FMA kernels it is
// exactly TanhInPlace.
func TanhPanel(v []float64) { TanhInPlace(v) }
