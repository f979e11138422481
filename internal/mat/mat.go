// Package mat provides the small dense linear-algebra kernels the neural
// network substrate is built on: row-major matrices, matrix-vector and
// matrix-matrix products, elementwise helpers, and weight initializers.
//
// The matrix-vector kernels (MulVecAdd, MulVecTAdd, AddOuter) are portable
// scalar Go with 4-way unrolled dot/axpy inner loops, independent
// accumulators and 2–4-row register blocking; the GEMMs (gemm.go) fall
// back to them for one-row and one-column shapes. The GEMMs additionally
// carry AVX2+FMA micro-kernels and vectorized panel activations behind
// runtime CPUID detection, with the same scalar blocking as the portable
// fallback (see gemm_amd64.go); the four-row dot kernel (dotQuad) is
// vectorized the same way. EVFED_PURE_GO=1 forces the fallback
// everywhere. All
// operations are allocation-free when given destination buffers, which
// matters inside the BPTT inner loop.
//
// Note on determinism: the unrolled dot product sums into independent
// accumulators (four scalar chains, or four FMA lanes per chain on the
// fast path), so results can differ from a naive left-to-right sum in the
// last floating-point bits. Every run of the same binary on the same
// machine remains bit-for-bit deterministic; only exact equality with a
// differently-associated implementation is waived.
package mat

import (
	"fmt"
	"math"

	"github.com/evfed/evfed/internal/rng"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared backing array).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// dotUnroll returns row · x with a 4-way unrolled inner loop. The four
// independent accumulators break the FP dependency chain, which is where
// the speedup comes from on superscalar cores.
func dotUnroll(row, x []float64) float64 {
	n := len(row)
	x = x[:n] // bounds-check elimination hint
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < n; i += 4 {
		s0 += row[i] * x[i]
		s1 += row[i+1] * x[i+1]
		s2 += row[i+2] * x[i+2]
		s3 += row[i+3] * x[i+3]
	}
	for ; i < n; i++ {
		s0 += row[i] * x[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// dotPair returns (r0 · x, r1 · x) in one sweep: register-blocking two
// matrix rows against a shared x halves the vector loads.
func dotPair(r0, r1, x []float64) (float64, float64) {
	n := len(x)
	r0 = r0[:n] // bounds-check elimination hints
	r1 = r1[:n]
	var a0, b0, a1, b1 float64
	j := 0
	for ; j+1 < n; j += 2 {
		xj, xj1 := x[j], x[j+1]
		a0 += r0[j] * xj
		b0 += r0[j+1] * xj1
		a1 += r1[j] * xj
		b1 += r1[j+1] * xj1
	}
	if j < n {
		xj := x[j]
		a0 += r0[j] * xj
		a1 += r1[j] * xj
	}
	return a0 + b0, a1 + b1
}

// axpyUnroll computes dst += alpha * src with a 4-way unrolled loop.
func axpyUnroll(alpha float64, dst, src []float64) {
	n := len(dst)
	src = src[:n] // bounds-check elimination hint
	i := 0
	for ; i+3 < n; i += 4 {
		dst[i] += alpha * src[i]
		dst[i+1] += alpha * src[i+1]
		dst[i+2] += alpha * src[i+2]
		dst[i+3] += alpha * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += alpha * src[i]
	}
}

// axpyPair computes dst += a0*r0 + a1*r1 in one sweep (two transposed-
// matvec rows per pass over dst).
func axpyPair(a0 float64, r0 []float64, a1 float64, r1, dst []float64) {
	n := len(dst)
	r0 = r0[:n] // bounds-check elimination hints
	r1 = r1[:n]
	j := 0
	for ; j+3 < n; j += 4 {
		dst[j] += a0*r0[j] + a1*r1[j]
		dst[j+1] += a0*r0[j+1] + a1*r1[j+1]
		dst[j+2] += a0*r0[j+2] + a1*r1[j+2]
		dst[j+3] += a0*r0[j+3] + a1*r1[j+3]
	}
	for ; j < n; j++ {
		dst[j] += a0*r0[j] + a1*r1[j]
	}
}

// MulVecAdd computes dst += m · x without zeroing dst first.
func (m *Matrix) MulVecAdd(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: MulVecAdd shape mismatch: %dx%d · %d -> %d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	if m.Cols == 1 {
		axpyUnroll(x[0], dst, m.Data)
		return
	}
	n := m.Cols
	i := 0
	for ; i+3 < m.Rows; i += 4 {
		s0, s1, s2, s3 := dotQuad(
			m.Data[i*n:i*n+n], m.Data[(i+1)*n:(i+1)*n+n],
			m.Data[(i+2)*n:(i+2)*n+n], m.Data[(i+3)*n:(i+3)*n+n], x)
		dst[i] += s0
		dst[i+1] += s1
		dst[i+2] += s2
		dst[i+3] += s3
	}
	if i+1 < m.Rows {
		s0, s1 := dotPair(m.Data[i*n:i*n+n], m.Data[(i+1)*n:(i+1)*n+n], x)
		dst[i] += s0
		dst[i+1] += s1
		i += 2
	}
	if i < m.Rows {
		dst[i] += dotUnroll(m.Data[i*n:i*n+n], x)
	}
}

// MulVecTAdd computes dst += mᵀ · x.
func (m *Matrix) MulVecTAdd(dst, x []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("mat: MulVecTAdd shape mismatch: (%dx%d)ᵀ · %d -> %d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	if m.Cols == 1 {
		dst[0] += dotUnroll(m.Data, x)
		return
	}
	m.mulVecTAccum(dst, x)
}

// mulVecTAccum adds mᵀ·x into dst, two rows per pass.
func (m *Matrix) mulVecTAccum(dst, x []float64) {
	n := m.Cols
	i := 0
	for ; i+1 < m.Rows; i += 2 {
		x0, x1 := x[i], x[i+1]
		switch {
		case x0 == 0 && x1 == 0:
		case x1 == 0:
			axpyUnroll(x0, dst, m.Data[i*n:i*n+n])
		case x0 == 0:
			axpyUnroll(x1, dst, m.Data[(i+1)*n:(i+1)*n+n])
		default:
			axpyPair(x0, m.Data[i*n:i*n+n], x1, m.Data[(i+1)*n:(i+1)*n+n], dst)
		}
	}
	if i < m.Rows && x[i] != 0 {
		axpyUnroll(x[i], dst, m.Data[i*n:i*n+n])
	}
}

// outerPair accumulates d0 += a0*b and d1 += a1*b in one sweep over b.
func outerPair(a0 float64, d0 []float64, a1 float64, d1, b []float64) {
	n := len(b)
	d0 = d0[:n] // bounds-check elimination hints
	d1 = d1[:n]
	j := 0
	for ; j+3 < n; j += 4 {
		bj, bj1, bj2, bj3 := b[j], b[j+1], b[j+2], b[j+3]
		d0[j] += a0 * bj
		d0[j+1] += a0 * bj1
		d0[j+2] += a0 * bj2
		d0[j+3] += a0 * bj3
		d1[j] += a1 * bj
		d1[j+1] += a1 * bj1
		d1[j+2] += a1 * bj2
		d1[j+3] += a1 * bj3
	}
	for ; j < n; j++ {
		bj := b[j]
		d0[j] += a0 * bj
		d1[j] += a1 * bj
	}
}

// AddOuter accumulates the outer product m += a ⊗ b where len(a) == Rows and
// len(b) == Cols. This is the gradient-accumulation primitive for dense and
// recurrent weight matrices.
func (m *Matrix) AddOuter(a, b []float64) {
	if len(a) != m.Rows || len(b) != m.Cols {
		panic(fmt.Sprintf("mat: AddOuter shape mismatch: %d ⊗ %d into %dx%d",
			len(a), len(b), m.Rows, m.Cols))
	}
	if m.Cols == 1 {
		axpyUnroll(b[0], m.Data, a)
		return
	}
	n := m.Cols
	i := 0
	for ; i+1 < len(a); i += 2 {
		a0, a1 := a[i], a[i+1]
		switch {
		case a0 == 0 && a1 == 0:
		case a1 == 0:
			axpyUnroll(a0, m.Data[i*n:i*n+n], b)
		case a0 == 0:
			axpyUnroll(a1, m.Data[(i+1)*n:(i+1)*n+n], b)
		default:
			outerPair(a0, m.Data[i*n:i*n+n], a1, m.Data[(i+1)*n:(i+1)*n+n], b)
		}
	}
	if i < len(a) && a[i] != 0 {
		axpyUnroll(a[i], m.Data[i*n:i*n+n], b)
	}
}

// XavierInit fills m with the Glorot/Xavier uniform distribution
// U(-limit, limit) where limit = sqrt(6 / (fanIn + fanOut)). This is the
// Keras default for LSTM and Dense kernels and is what the paper's stack
// used.
func (m *Matrix) XavierInit(r *rng.Source, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = r.Range(-limit, limit)
	}
}

// OrthogonalishInit fills m with scaled normal deviates, the conventional
// stand-in for Keras' orthogonal recurrent initializer: N(0, 1/sqrt(n))
// keeps the recurrent spectral radius near 1 for stable early training.
func (m *Matrix) OrthogonalishInit(r *rng.Source, n int) {
	std := 1.0 / math.Sqrt(float64(n))
	for i := range m.Data {
		m.Data[i] = r.Normal(0, std)
	}
}

// AddVec computes dst[i] += src[i].
func AddVec(dst, src []float64) {
	if len(dst) != len(src) {
		panic("mat: AddVec length mismatch")
	}
	for i, v := range src {
		dst[i] += v
	}
}

// Axpy computes dst[i] += alpha * src[i].
func Axpy(alpha float64, dst, src []float64) {
	if len(dst) != len(src) {
		panic("mat: Axpy length mismatch")
	}
	for i, v := range src {
		dst[i] += alpha * v
	}
}

// AxpyComp computes dst[i] += alpha * src[i] with Neumaier-compensated
// summation: the exact rounding error of every addition into dst[i] is
// accumulated in comp[i], so dst[i] + comp[i] carries the running sum to
// roughly twice working precision. Accumulating through AxpyComp makes
// grouped folds (partial sums combined later, as a hierarchical
// aggregation tree produces) agree with the flat sequential fold at full
// float64 precision — the foundation of the federation's flat-vs-edge
// aggregation parity.
//
// On AVX2 hosts the step runs four lanes at a time (vecAxpyComp) with the
// same IEEE operations in the same order as the scalar loop, so both
// paths produce the same bits; the scalar loop takes the n % 4 tail.
func AxpyComp(alpha float64, dst, comp, src []float64) {
	if len(dst) != len(src) || len(comp) != len(src) {
		panic("mat: AxpyComp length mismatch")
	}
	k := axpyCompVec(alpha, dst, comp, src)
	dst, comp, src = dst[k:], comp[k:], src[k:]
	for i, v := range src {
		// The explicit conversion rounds the product before the add on
		// every platform (Go may otherwise fuse it), as VMULPD does.
		t := float64(alpha * v)
		s := dst[i] + t
		if math.Abs(dst[i]) >= math.Abs(t) {
			comp[i] += (dst[i] - s) + t
		} else {
			comp[i] += (t - s) + dst[i]
		}
		dst[i] = s
	}
}

// FirstNonFinite returns the index of the first NaN or ±Inf in v, or -1.
// On AVX2 hosts one vector pass answers whether v holds any at all, and
// only on a hit does the scalar scan look for the index.
func FirstNonFinite(v []float64) int {
	const exp = 0x7ff << 52 // an all-ones exponent is Inf or NaN
	for i := finitePrefix(v); i < len(v); i++ {
		if math.Float64bits(v[i])&exp == exp {
			return i
		}
	}
	return -1
}

// Scale multiplies every element of v by alpha.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Hadamard computes dst[i] = a[i] * b[i].
func Hadamard(dst, a, b []float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("mat: Hadamard length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// Sigmoid is the numerically stable logistic function 1/(1+e^{-v}).
func Sigmoid(v float64) float64 {
	if v >= 0 {
		z := math.Exp(-v)
		return 1 / (1 + z)
	}
	z := math.Exp(v)
	return z / (1 + z)
}

// SigmoidInPlace applies the logistic function to every element of v.
// The stable branchy form is written out in the loop body (Sigmoid itself
// is beyond the inliner's budget, and a per-element call costs as much as
// the arithmetic).
func SigmoidInPlace(v []float64) {
	for i, x := range v {
		if x >= 0 {
			e := math.Exp(-x)
			v[i] = 1 / (1 + e)
		} else {
			e := math.Exp(x)
			v[i] = e / (1 + e)
		}
	}
}

// TanhInPlace applies tanh to every element of v.
func TanhInPlace(v []float64) {
	for i, x := range v {
		v[i] = math.Tanh(x)
	}
}

// Fill sets every element of v to c.
func Fill(v []float64, c float64) {
	for i := range v {
		v[i] = c
	}
}

// MaxAbs returns the largest absolute value in v (0 for empty input).
func MaxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
}

// ClipNorm rescales v in place so its Euclidean norm does not exceed limit,
// returning the scale factor applied (1 when no clipping occurred).
func ClipNorm(v []float64, limit float64) float64 {
	if limit <= 0 {
		return 1
	}
	n := Norm2(v)
	if n <= limit || n == 0 {
		return 1
	}
	s := limit / n
	Scale(s, v)
	return s
}
