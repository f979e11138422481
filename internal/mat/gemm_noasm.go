//go:build !amd64

package mat

// Non-amd64 builds always run the portable scalar micro-kernels.
const fmaEnabled = false

func dotBlock4x2(a0, a1, a2, a3, b0, b1 []float64, out *[8]float64) {
	out[0], out[1], out[2], out[3], out[4], out[5], out[6], out[7] = dot4x2(a0, a1, a2, a3, b0, b1)
}

func dotQuad(r0, r1, r2, r3, x []float64) (s0, s1, s2, s3 float64) {
	return dot4x1(r0, r1, r2, r3, x)
}

func dotOne(a, x []float64) float64 { return dot1x1(a, x) }

func axpyBlock2x4(c *[8]float64, d0, d1, s0, s1, s2, s3 []float64) {
	axpy2x4(c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7], d0, d1, s0, s1, s2, s3)
}

// axpyCompVec leaves the whole of AxpyComp to the scalar loop.
func axpyCompVec(alpha float64, dst, comp, src []float64) int { return 0 }

// finitePrefix proves nothing finite; FirstNonFinite scans all of v.
func finitePrefix(v []float64) int { return 0 }

// SigmoidPanel is the batched-path logistic function; without the FMA
// kernels it is exactly SigmoidInPlace.
func SigmoidPanel(v []float64) { SigmoidInPlace(v) }

// TanhPanel is the batched-path tanh; without the FMA kernels it is
// exactly TanhInPlace.
func TanhPanel(v []float64) { TanhInPlace(v) }
