//go:build amd64

package mat

import (
	"math"
	"os"
)

// The batched GEMM kernels carry an optional AVX2+FMA fast path: the same
// 4-row × 2-column, 4-row × 1-column and 2-row × 4-source register
// blockings as the scalar micro-kernels (the 4×1 one also serves every
// matvec), with each accumulator chain widened to the four f64 lanes
// of a ymm register. The fast path is enabled only when CPUID reports
// AVX2, FMA and OS ymm-state support; every other configuration (and the
// EVFED_PURE_GO=1 escape hatch, used by the parity tests) runs the
// portable scalar kernels. Within one binary on one machine both paths
// are bit-for-bit deterministic; they differ from each other only in
// floating-point association and fused rounding.

// Implemented in gemm_amd64.s.
func cpuidRaw(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

//go:noescape
func fmaDot4x2(a0, a1, a2, a3, b0, b1 *float64, n int, out *[8]float64)

//go:noescape
func fmaDot4x1(r0, r1, r2, r3, x *float64, n int, out *[4]float64)

//go:noescape
func fmaAxpy2x4(c *[8]float64, d0, d1, s0, s1, s2, s3 *float64, n int)

//go:noescape
func fmaSigmoidPanel(v *float64, n int)

//go:noescape
func fmaTanhPanel(v *float64, n int)

//go:noescape
func vecAxpyComp(alpha float64, dst, comp, src *float64, n int)

//go:noescape
func vecAnyNonFinite(v *float64, n int) bool

// axpyCompVec runs AxpyComp's Neumaier step over the longest prefix whose
// length is a multiple of 4 and returns that length. The kernel needs
// only AVX2, not FMA — it must not fuse — but shares the FMA kernels'
// gate so EVFED_PURE_GO=1 turns every vector path off at once.
func axpyCompVec(alpha float64, dst, comp, src []float64) int {
	n4 := len(src) &^ 3
	if !fmaEnabled || n4 == 0 {
		return 0
	}
	vecAxpyComp(alpha, &dst[0], &comp[0], &src[0], n4)
	return n4
}

// finitePrefix returns the length of a prefix of v the vector pass proved
// free of NaN and Inf: the longest multiple of 4, or 0 when that prefix
// holds one (or the vector path is off).
func finitePrefix(v []float64) int {
	n4 := len(v) &^ 3
	if !fmaEnabled || n4 == 0 || vecAnyNonFinite(&v[0], n4) {
		return 0
	}
	return n4
}

// SigmoidPanel applies the logistic function to v on the batched
// activation path: four lanes per step through the vectorized exp kernel,
// scalar remainder (and non-FMA hosts) through SigmoidInPlace. The
// vector kernel agrees with the scalar form to ~2 ulp and is
// deterministic for a binary/machine pair.
func SigmoidPanel(v []float64) {
	if fmaEnabled {
		if n4 := len(v) &^ 3; n4 > 0 {
			fmaSigmoidPanel(&v[0], n4)
			v = v[n4:]
		}
	}
	SigmoidInPlace(v)
}

// TanhPanel is the batched-path tanh (see SigmoidPanel): vectorized as
// sign(x)·(1−t)/(1+t) with t = exp(−2|x|), scalar remainder via
// TanhInPlace.
func TanhPanel(v []float64) {
	if fmaEnabled {
		if n4 := len(v) &^ 3; n4 > 0 {
			fmaTanhPanel(&v[0], n4)
			v = v[n4:]
		}
	}
	TanhInPlace(v)
}

// fmaEnabled gates the AVX2+FMA micro-kernels at run time.
var fmaEnabled = detectFMA() && os.Getenv("EVFED_PURE_GO") == ""

func detectFMA() bool {
	maxID, _, _, _ := cpuidRaw(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidRaw(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// The OS must have enabled XMM and YMM state saving (XCR0 bits 1, 2).
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidRaw(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

// dotBlock4x2 dispatches one 4×2 dot block to the FMA or scalar kernel.
func dotBlock4x2(a0, a1, a2, a3, b0, b1 []float64, out *[8]float64) {
	if fmaEnabled {
		fmaDot4x2(&a0[0], &a1[0], &a2[0], &a3[0], &b0[0], &b1[0], len(b0), out)
		return
	}
	out[0], out[1], out[2], out[3], out[4], out[5], out[6], out[7] = dot4x2(a0, a1, a2, a3, b0, b1)
}

// dotQuad computes four row dot products against a shared x: the FMA
// kernel when enabled, the scalar dot4x1 otherwise. Each dot is
// associated exactly as one output of the matching 4×2 kernel.
func dotQuad(r0, r1, r2, r3, x []float64) (s0, s1, s2, s3 float64) {
	if fmaEnabled && len(x) > 0 {
		var out [4]float64
		fmaDot4x1(&r0[0], &r1[0], &r2[0], &r3[0], &x[0], len(x), &out)
		return out[0], out[1], out[2], out[3]
	}
	return dot4x1(r0, r1, r2, r3, x)
}

// dotOne computes a single leftover dot product with the association of
// the kernel family in use, so it matches what a 4×2 or 4×1 block would
// have produced for the same pair of rows.
func dotOne(a, x []float64) float64 {
	if fmaEnabled {
		return fmaDot1x1(a, x)
	}
	return dot1x1(a, x)
}

// fmaDot1x1 is one dot in the lane layout of fmaDot4x2/fmaDot4x1: lane l
// fuses the products at k ≡ l (mod 4), the lanes reduce as
// (l0+l2)+(l1+l3), and the n % 4 tail is fused into the reduced sum.
// math.FMA rounds exactly as VFMADD does, so the result is bit-equal.
func fmaDot1x1(a, x []float64) float64 {
	n := len(x)
	a = a[:n] // bounds-check elimination hint
	var l0, l1, l2, l3 float64
	k := 0
	for ; k+3 < n; k += 4 {
		l0 = math.FMA(a[k], x[k], l0)
		l1 = math.FMA(a[k+1], x[k+1], l1)
		l2 = math.FMA(a[k+2], x[k+2], l2)
		l3 = math.FMA(a[k+3], x[k+3], l3)
	}
	s := (l0 + l2) + (l1 + l3)
	for ; k < n; k++ {
		s = math.FMA(a[k], x[k], s)
	}
	return s
}

// axpyBlock2x4 dispatches one 2×4 axpy block to the FMA or scalar kernel.
func axpyBlock2x4(c *[8]float64, d0, d1, s0, s1, s2, s3 []float64) {
	if fmaEnabled {
		fmaAxpy2x4(c, &d0[0], &d1[0], &s0[0], &s1[0], &s2[0], &s3[0], len(d0))
		return
	}
	axpy2x4(c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7], d0, d1, s0, s1, s2, s3)
}
