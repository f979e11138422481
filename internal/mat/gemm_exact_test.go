package mat

import (
	"math"
	"testing"

	"github.com/evfed/evfed/internal/rng"
)

// The vector-path GEMMs promise bit-identical results to the blocked loop
// order they replaced: a register tile or a dot panel changes where an
// element is held while it is computed, never the operations applied to
// it. The exact* functions below restate that loop order with math.FMA
// for every fused step and plain Go arithmetic for every unfused one, so
// the comparison needs nothing from the kernels under test.

// exactDot is one dot in the vector lane layout: lane l fuses the
// products at k ≡ l (mod 4), the lanes reduce as (l0+l2)+(l1+l3), and the
// k % 4 tail is fused into the reduced sum.
func exactDot(a, x []float64) float64 {
	var l0, l1, l2, l3 float64
	k := 0
	for ; k+3 < len(x); k += 4 {
		l0 = math.FMA(a[k], x[k], l0)
		l1 = math.FMA(a[k+1], x[k+1], l1)
		l2 = math.FMA(a[k+2], x[k+2], l2)
		l3 = math.FMA(a[k+3], x[k+3], l3)
	}
	s := (l0 + l2) + (l1 + l3)
	for ; k < len(x); k++ {
		s = math.FMA(a[k], x[k], s)
	}
	return s
}

// exactDotPair is dotPair's two-accumulator association.
func exactDotPair(r, x []float64) float64 {
	var e, o float64
	j := 0
	for ; j+1 < len(x); j += 2 {
		e += r[j] * x[j]
		o += r[j+1] * x[j+1]
	}
	if j < len(x) {
		e += r[j] * x[j]
	}
	return e + o
}

// exactDotUnroll is dotUnroll's four-accumulator association.
func exactDotUnroll(r, x []float64) float64 {
	var s [4]float64
	j := 0
	for ; j+3 < len(x); j += 4 {
		for c := range s {
			s[c] += r[j+c] * x[j+c]
		}
	}
	for ; j < len(x); j++ {
		s[0] += r[j] * x[j]
	}
	return (s[0] + s[1]) + (s[2] + s[3])
}

// exactMulVecAdd is MulVecAdd: dst += m·x, rows in quads, then a pair,
// then a single row.
func exactMulVecAdd(m *Matrix, dst, x []float64) {
	if m.Cols == 1 {
		for i := range dst {
			dst[i] += x[0] * m.Data[i]
		}
		return
	}
	i := 0
	for ; i+3 < m.Rows; i += 4 {
		for r := i; r < i+4; r++ {
			dst[r] += exactDot(m.Row(r), x)
		}
	}
	if i+1 < m.Rows {
		dst[i] += exactDotPair(m.Row(i), x)
		dst[i+1] += exactDotPair(m.Row(i+1), x)
		i += 2
	}
	if i < m.Rows {
		dst[i] += exactDotUnroll(m.Row(i), x)
	}
}

// exactAxpyRows is mulVecTAccum and AddOuter's row skipping: dst(r) +=
// c_r·src for every r with c_r ≠ 0, pairs of nonzero coefficients
// summed before the add (axpyPair) when pair is set.
func exactAxpyRows(c []float64, rows func(int) []float64, src func(int) []float64, pair bool) {
	i := 0
	for ; i+1 < len(c); i += 2 {
		c0, c1 := c[i], c[i+1]
		if pair && c0 != 0 && c1 != 0 {
			d, s0, s1 := rows(i), src(i), src(i+1)
			for j := range d {
				d[j] += c0*s0[j] + c1*s1[j]
			}
			continue
		}
		for r, cr := range []float64{c0, c1} {
			if cr == 0 {
				continue
			}
			d, s := rows(i+r), src(i+r)
			for j := range d {
				d[j] += cr * s[j]
			}
		}
	}
	if i < len(c) && c[i] != 0 {
		d, s := rows(i), src(i)
		for j := range d {
			d[j] += c[i] * s[j]
		}
	}
}

// exactMulTAdd: every dot of depth ≥ 2 in the lane layout, added once;
// depth 1 is a plain product (K ≥ 1 throughout).
func exactMulTAdd(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			if a.Cols == 1 {
				dst.Data[i*dst.Cols+j] += a.Data[i] * b.Data[j]
			} else {
				dst.Data[i*dst.Cols+j] += exactDot(a.Row(i), b.Row(j))
			}
		}
	}
}

// exactMulTBias: bias plus the same dot (or depth-1 product).
func exactMulTBias(dst, a, b *Matrix, bias []float64) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			if a.Cols == 1 {
				dst.Data[i*dst.Cols+j] = bias[j] + a.Data[i]*b.Data[j]
			} else {
				dst.Data[i*dst.Cols+j] = bias[j] + exactDot(a.Row(i), b.Row(j))
			}
		}
	}
}

// exactChain4 applies one 4-source FMA group to row d: the column chain
// d = fma(c3, s3, fma(c2, s2, fma(c1, s1, fma(c0, s0, d)))).
func exactChain4(d []float64, c [4]float64, s [4][]float64) {
	s0, s1, s2, s3 := s[0][:len(d)], s[1][:len(d)], s[2][:len(d)], s[3][:len(d)]
	for j := range d {
		d[j] = math.FMA(c[3], s3[j], math.FMA(c[2], s2[j], math.FMA(c[1], s1[j], math.FMA(c[0], s0[j], d[j]))))
	}
}

// exactMulAdd is MulAdd: depth panels of max(4, 24 KiB/(8N)) source rows;
// within a panel each row pair takes the 4-row groups fused, then a
// 2-row remainder as c0·s0 + c1·s1 added once, then a last single row;
// an odd last destination row takes axpyPair/axpyUnroll throughout.
func exactMulAdd(dst, a, b *Matrix) {
	n := dst.Cols
	if n == 1 {
		exactMulVecAdd(a, dst.Data, b.Data)
		return
	}
	kb := max(4, gemmPanelBytes/(8*n))
	for k0 := 0; k0 < b.Rows; k0 += kb {
		k1 := min(k0+kb, b.Rows)
		i := 0
		for ; i+1 < dst.Rows; i += 2 {
			k := k0
			for ; k+3 < k1; k += 4 {
				for r := i; r < i+2; r++ {
					ar := a.Row(r)
					exactChain4(dst.Row(r), [4]float64{ar[k], ar[k+1], ar[k+2], ar[k+3]},
						[4][]float64{b.Row(k), b.Row(k + 1), b.Row(k + 2), b.Row(k + 3)})
				}
			}
			for ; k+1 < k1; k += 2 {
				for r := i; r < i+2; r++ {
					d, ar, s0, s1 := dst.Row(r), a.Row(r), b.Row(k), b.Row(k+1)
					for j := range d {
						d[j] += ar[k]*s0[j] + ar[k+1]*s1[j]
					}
				}
			}
			if k < k1 {
				for r := i; r < i+2; r++ {
					d, s := dst.Row(r), b.Row(k)
					for j := range d {
						d[j] += a.At(r, k) * s[j]
					}
				}
			}
		}
		if i < dst.Rows {
			d, ar := dst.Row(i), a.Row(i)
			k := k0
			for ; k+1 < k1; k += 2 {
				s0, s1 := b.Row(k), b.Row(k+1)
				for j := range d {
					d[j] += ar[k]*s0[j] + ar[k+1]*s1[j]
				}
			}
			if k < k1 {
				s := b.Row(k)
				for j := range d {
					d[j] += ar[k] * s[j]
				}
			}
		}
	}
}

// exactMulATAdd is MulATAdd: each 4-row source group fused into the
// destination row pairs (an odd last row takes two axpyPair sums), then
// the K % 4 tail rows as AddOuter rank-1 updates.
func exactMulATAdd(dst, a, b *Matrix) {
	if dst.Cols == 1 {
		if dst.Rows == 1 {
			dst.Data[0] += exactDotUnroll(a.Data, b.Data)
			return
		}
		exactAxpyRows(b.Data, func(int) []float64 { return dst.Data }, a.Row, true)
		return
	}
	k := 0
	for ; k+3 < a.Rows; k += 4 {
		src := [4][]float64{b.Row(k), b.Row(k + 1), b.Row(k + 2), b.Row(k + 3)}
		i := 0
		for ; i+1 < dst.Rows; i += 2 {
			for r := i; r < i+2; r++ {
				exactChain4(dst.Row(r), [4]float64{a.At(k, r), a.At(k+1, r), a.At(k+2, r), a.At(k+3, r)}, src)
			}
		}
		if i < dst.Rows {
			d := dst.Row(i)
			for q := 0; q < 4; q += 2 {
				c0, c1 := a.At(k+q, i), a.At(k+q+1, i)
				for j := range d {
					d[j] += c0*src[q][j] + c1*src[q+1][j]
				}
			}
		}
	}
	for ; k < a.Rows; k++ {
		bk := b.Row(k)
		exactAxpyRows(a.Row(k), dst.Row, func(int) []float64 { return bk }, false)
	}
}

// exactRig hands out matrices filled from one pool of normal deviates
// (drawn once: drawing fresh deviates would dominate the test's time),
// each starting at a new offset.
type exactRig struct {
	pool []float64
	off  int
}

func (g *exactRig) mat(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for n, off := 0, g.off%len(g.pool); n < len(m.Data); off = 0 {
		n += copy(m.Data[n:], g.pool[off:])
	}
	g.off += len(m.Data) + 7
	return m
}

// exactCompare runs every GEMM of shape (m, n, k) through the kernels and
// through the exact* loop order and demands identical bits.
func (g *exactRig) compare(t *testing.T, m, n, k int) {
	t.Helper()
	check := func(op string, got, want *Matrix) {
		t.Helper()
		for i := range got.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s M=%d N=%d K=%d: element %d is %v, loop order gives %v",
					op, m, n, k, i, got.Data[i], want.Data[i])
			}
		}
	}
	sparsify := func(x *Matrix) { // exercise the zero-coefficient skips
		for i := range x.Data {
			if i%7 == 3 {
				x.Data[i] = 0
			}
		}
	}

	// MulTAdd / MulTBias: dst M×N from a M×K and b N×K.
	a, b := g.mat(m, k), g.mat(n, k)
	bias := g.mat(1, n).Data
	got := g.mat(m, n)
	want := got.Clone()
	got.MulTAdd(a, b)
	exactMulTAdd(want, a, b)
	check("MulTAdd", got, want)
	got.MulTBias(a, b, bias)
	exactMulTBias(want, a, b, bias)
	check("MulTBias", got, want)

	// MulAdd / Mul: dst M×N from a M×K and b K×N.
	a, b = g.mat(m, k), g.mat(k, n)
	got = g.mat(m, n)
	want = got.Clone()
	got.MulAdd(a, b)
	exactMulAdd(want, a, b)
	check("MulAdd", got, want)
	got.Mul(a, b)
	want.Zero()
	exactMulAdd(want, a, b)
	check("Mul", got, want)

	// MulATAdd: dst M×N from a K×M and b K×N.
	a, b = g.mat(k, m), g.mat(k, n)
	sparsify(a)
	sparsify(b)
	got = g.mat(m, n)
	want = got.Clone()
	got.MulATAdd(a, b)
	exactMulATAdd(want, a, b)
	check("MulATAdd", got, want)
}

// TestGEMMBitExact holds the vector-path GEMMs to their documented loop
// order bit for bit: every M, N, K in 1…40, and the LSTM and Dense shapes
// of the paper's models at every batch height that occurs.
func TestGEMMBitExact(t *testing.T) {
	if !fmaEnabled {
		t.Skip("AVX2+FMA kernels not enabled (no CPU support, or EVFED_PURE_GO=1)")
	}
	g := &exactRig{pool: randMat(rng.New(29), 1, 4099).Data}
	dims := make([]int, 40)
	for i := range dims {
		dims[i] = i + 1
	}
	if testing.Short() {
		// Every tile, strip and lane remainder, at a tenth of the cost.
		dims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 23, 40}
	}
	for _, m := range dims {
		for _, n := range dims {
			for _, k := range dims {
				g.compare(t, m, n, k)
			}
		}
	}
	batches := []int{32}
	for bsz := 1; bsz <= 17; bsz++ {
		batches = append(batches, bsz)
	}
	for _, u := range []int{25, 50} {
		for _, bsz := range batches {
			// Per LSTM of U units and input width in: the gate products
			// (B×4U from B×in), the weight gradients (4U×in over B rows)
			// and the input gradients (B×in from B×4U); then the Dense
			// heads U→10→1.
			for _, in := range []int{1, 10, 25, 50} {
				g.compare(t, bsz, 4*u, in)
				g.compare(t, 4*u, in, bsz)
				g.compare(t, bsz, in, 4*u)
			}
			g.compare(t, bsz, 10, u)
			g.compare(t, bsz, 1, 10)
		}
	}
}
