//go:build amd64

package mat

import (
	"math"
	"os"
)

// The batched GEMM kernels carry an optional AVX2+FMA fast path: dot
// panels (one call per 4-row block of a·bᵀ, every dot a 4-lane FMA
// chain), the 4×1 dot kernel behind every matvec, and register tiles for
// the gradient GEMMs (a dst block held in ymm registers across every
// source row of a call). The fast path is enabled only when CPUID reports
// AVX2, FMA and OS ymm-state support; every other configuration (and the
// EVFED_PURE_GO=1 escape hatch, used by the parity tests) runs the
// portable scalar kernels. Within one binary on one machine both paths
// are bit-for-bit deterministic; they differ from each other only in
// floating-point association and fused rounding.
//
// Two kernels have an AVX-512F form on top, used when CPUID also reports
// AVX-512F and the OS saves the opmask and zmm state: the four-row
// gradient tile at n > 8 (16-column strips, a masked strip for the rest)
// and the four-update compensated fold (eight lanes). Each runs the same
// per-element operations in the same order as its AVX2 form, so the two
// give the same bits; EVFED_PURE_GO=1 turns them off with the rest.

// Implemented in gemm_amd64.s.
func cpuidRaw(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

//go:noescape
func fmaDotPanel(a, b *float64, k, npairs int, d *float64, ldd int, base *float64, ldbase int)

//go:noescape
func fmaDot4x1(r0, r1, r2, r3, x *float64, n int, out *[4]float64)

//go:noescape
func fmaTile4(d, a *float64, lai, lak int, b *float64, n, k int)

//go:noescape
func fmaTile2(d, a *float64, lai, lak int, b *float64, n, k int)

//go:noescape
func vecBiasOuter(d, a *float64, rows int, b, bias *float64, n int)

//go:noescape
func fmaSigmoidPanel(v *float64, n int)

//go:noescape
func fmaTanhPanel(v *float64, n int)

//go:noescape
func vecAxpyComp(alpha float64, dst, comp, src *float64, n int)

//go:noescape
func vecAxpyComp4(alpha *[4]float64, dst, comp, s0, s1, s2, s3 *float64, n int)

//go:noescape
func zmmAxpyComp4(alpha *[4]float64, dst, comp, s0, s1, s2, s3 *float64, n int)

//go:noescape
func zmmTile4(d, a *float64, lai, lak int, b *float64, n, k int)

//go:noescape
func vecAnyNonFinite(v *float64, n int) bool

// axpyCompVec runs AxpyComp's TwoSum step over the longest prefix whose
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

// axpyComp4Vec runs AxpyComp4's four TwoSum steps over the longest prefix
// the vector kernel covers — a multiple of 8 with AVX-512F, of 4 with
// AVX2 — and returns its length.
func axpyComp4Vec(alpha *[4]float64, dst, comp []float64, src *[4][]float64) int {
	// Direct calls, not a func value: an indirect call would make every
	// pointer argument escape.
	if avx512Enabled {
		n := len(dst) &^ 7
		if n > 0 {
			zmmAxpyComp4(alpha, &dst[0], &comp[0], &src[0][0], &src[1][0], &src[2][0], &src[3][0], n)
		}
		return n
	}
	n := len(dst) &^ 3
	if !fmaEnabled || n == 0 {
		return 0
	}
	vecAxpyComp4(alpha, &dst[0], &comp[0], &src[0][0], &src[1][0], &src[2][0], &src[3][0], n)
	return n
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

// fmaEnabled gates the AVX2+FMA micro-kernels at run time; avx512Enabled
// gates the AVX-512F forms on top of them.
var (
	fmaEnabled    = detectFMA() && os.Getenv("EVFED_PURE_GO") == ""
	avx512Enabled = fmaEnabled && detectAVX512()
)

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

// detectAVX512 reports AVX-512F (CPUID leaf 7 EBX bit 16) with the OS
// saving the opmask, upper-zmm and high-zmm state (XCR0 bits 5–7).
// Callers check detectFMA first, which establishes leaf 7 and OSXSAVE.
func detectAVX512() bool {
	_, ebx7, _, _ := cpuidRaw(7, 0)
	const avx512fBit = 1 << 16
	xcr0, _ := xgetbv0()
	return ebx7&avx512fBit != 0 && xcr0&0xe0 == 0xe0
}

// dotPanel writes the column pairs of one 4-row block of a·bᵀ with a
// single fmaDotPanel call: a holds the block's four rows (k wide), b the
// panel's rows from its first one on, and
// d[r*ldd + j] = base[r*ldbase + j] + a_r · b_j. It returns the number
// of columns written, the largest even count ≤ ncols, or 0 when the
// vector path is off.
func dotPanel(a, b []float64, k, ncols int, d []float64, ldd int, base []float64, ldbase int) int {
	np := ncols / 2
	if !fmaEnabled || np == 0 {
		return 0
	}
	fmaDotPanel(&a[0], &b[0], k, np, &d[0], ldd, &base[0], ldbase)
	return 2 * np
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

// fmaDot1x1 is one dot in the lane layout of fmaDotPanel/fmaDot4x1: lane l
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

// gradTile accumulates d[i*n + j] += Σ_kk a[i*lai + kk*lak] · b[kk*n + j]
// over kk < k with the register-tile kernels, one fused multiply-add per
// term in kk order, for the rows i < rows &^ 1. It returns the number of
// rows it covered, or 0 when the vector path is off or k is 0. Four-row
// blocks take the AVX-512F tile when n > 8: up to 8 columns the AVX2
// strips are as fast or faster (at k = 32, n = 8: 81 ns against 90 ns;
// n = 1: 62 against 95), from 10 columns on the zmm tile is 1.4–2× faster.
func gradTile(d []float64, rows, n int, a []float64, lai, lak int, b []float64, k int) int {
	if !fmaEnabled || k == 0 {
		return 0
	}
	wide := avx512Enabled && n > 8
	i := 0
	for ; i+3 < rows; i += 4 {
		if wide {
			zmmTile4(&d[i*n], &a[i*lai], lai, lak, &b[0], n, k)
		} else {
			fmaTile4(&d[i*n], &a[i*lai], lai, lak, &b[0], n, k)
		}
	}
	if i+1 < rows {
		fmaTile2(&d[i*n], &a[i*lai], lai, lak, &b[0], n, k)
		i += 2
	}
	return i
}

// biasOuter writes the depth-1 product d[i*n + j] = bias[j] + a[i]*b[j]
// (n = len(b)) with one vecBiasOuter call. It reports false, having
// written nothing, when the vector path is off.
func biasOuter(d, a, b, bias []float64) bool {
	if !fmaEnabled || len(a) == 0 || len(b) == 0 {
		return false
	}
	vecBiasOuter(&d[0], &a[0], len(a), &b[0], &bias[0], len(b))
	return true
}
