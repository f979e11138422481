package mat

import (
	"math"
	"testing"

	"github.com/evfed/evfed/internal/rng"
)

func randMat(r *rng.Source, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Normal(0, 1)
	}
	return m
}

// naive reference GEMMs: plain left-to-right triple loops.
func naiveMulTAdd(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			dst.Data[i*dst.Cols+j] += s
		}
	}
}

func naiveMulAdd(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			dst.Data[i*dst.Cols+j] += s
		}
	}
}

func naiveMulATAdd(dst, a, b *Matrix) {
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Rows; k++ {
				s += a.At(k, i) * b.At(k, j)
			}
			dst.Data[i*dst.Cols+j] += s
		}
	}
}

func matsClose(t *testing.T, name string, got, want *Matrix, tol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Abs(v-want.Data[i]) > tol {
			t.Fatalf("%s: element %d: %v vs %v", name, i, v, want.Data[i])
		}
	}
}

// gemmShapes covers the dimensions the batched layers actually produce
// (B ∈ {1, 3, 32}, widths 1..201) plus every micro-kernel remainder class.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1}, {2, 3, 2}, {3, 5, 7}, {4, 4, 4}, {5, 2, 3},
	{6, 50, 200}, {7, 13, 9}, {32, 50, 200}, {32, 1, 50},
	{31, 25, 100}, {8, 200, 50}, {1, 200, 50}, {33, 7, 1},
}

func TestMulTAddMatchesNaive(t *testing.T) {
	r := rng.New(1)
	for _, s := range gemmShapes {
		a := randMat(r, s.m, s.k)
		b := randMat(r, s.n, s.k)
		got := randMat(r, s.m, s.n)
		want := got.Clone()
		got.MulTAdd(a, b)
		naiveMulTAdd(want, a, b)
		matsClose(t, "MulTAdd", got, want, 1e-12*float64(s.k+1))
	}
}

func TestMulAddMatchesNaive(t *testing.T) {
	r := rng.New(2)
	for _, s := range gemmShapes {
		a := randMat(r, s.m, s.k)
		b := randMat(r, s.k, s.n)
		got := randMat(r, s.m, s.n)
		want := got.Clone()
		got.MulAdd(a, b)
		naiveMulAdd(want, a, b)
		matsClose(t, "MulAdd", got, want, 1e-12*float64(s.k+1))
	}
}

func TestMulATAddMatchesNaive(t *testing.T) {
	r := rng.New(3)
	for _, s := range gemmShapes {
		a := randMat(r, s.k, s.m)
		b := randMat(r, s.k, s.n)
		got := randMat(r, s.m, s.n)
		want := got.Clone()
		got.MulATAdd(a, b)
		naiveMulATAdd(want, a, b)
		matsClose(t, "MulATAdd", got, want, 1e-12*float64(s.k+1))
	}
}

func TestMulTBiasAndMulT(t *testing.T) {
	r := rng.New(4)
	a := randMat(r, 5, 7)
	b := randMat(r, 3, 7)
	bias := []float64{0.5, -1, 2}

	got := randMat(r, 5, 3) // stale contents must be overwritten
	got.MulTBias(a, b, bias)
	want := NewMatrix(5, 3)
	for i := 0; i < 5; i++ {
		copy(want.Row(i), bias)
	}
	naiveMulTAdd(want, a, b)
	matsClose(t, "MulTBias", got, want, 1e-12)

	got2 := randMat(r, 5, 3)
	got2.MulT(a, b)
	want2 := NewMatrix(5, 3)
	naiveMulTAdd(want2, a, b)
	matsClose(t, "MulT", got2, want2, 1e-12)

	got3 := randMat(r, 5, 7)
	got3.Mul(a, NewMatrix(7, 7))
	matsClose(t, "Mul-zero", got3, NewMatrix(5, 7), 0)
}

// TestMulTAddMatchesMulVec pins the batched kernel to a plain
// matrix-vector loop: a one-row batch must land within rounding of
// bias + W · x summed left to right.
func TestMulTAddMatchesMulVec(t *testing.T) {
	r := rng.New(5)
	w := randMat(r, 200, 50)
	x := randMat(r, 1, 50)
	bias := make([]float64, 200)
	for i := range bias {
		bias[i] = r.Normal(0, 1)
	}
	batched := NewMatrix(1, 200)
	batched.MulTBias(x, w, bias)
	seq := make([]float64, 200)
	for j := range seq {
		seq[j] = bias[j]
		for k, v := range x.Row(0) {
			seq[j] += w.At(j, k) * v
		}
	}
	for j := range seq {
		if math.Abs(batched.Row(0)[j]-seq[j]) > 1e-12 {
			t.Fatalf("col %d: batched %v vs matvec %v", j, batched.Row(0)[j], seq[j])
		}
	}
}

// TestDotKernelsShareAssociation: the 4×2 block, the 4×1 kernel and the
// single-dot tail compute each dot with one association, on the scalar
// kernels and on whichever family the dispatchers select at run time.
func TestDotKernelsShareAssociation(t *testing.T) {
	r := rng.New(10)
	for n := 0; n <= 67; n++ {
		a := randMat(r, 4, n)
		b := randMat(r, 2, n)
		a0, a1, a2, a3 := a.Row(0), a.Row(1), a.Row(2), a.Row(3)
		x, y := b.Row(0), b.Row(1)

		s00, _, s10, _, s20, _, s30, _ := dot4x2(a0, a1, a2, a3, x, y)
		q0, q1, q2, q3 := dot4x1(a0, a1, a2, a3, x)
		for i, pair := range [][2]float64{{s00, q0}, {s10, q1}, {s20, q2}, {s30, q3}} {
			if pair[0] != pair[1] || dot1x1(a.Row(i), x) != pair[0] {
				t.Fatalf("n=%d row %d scalar: dot4x2 %v, dot4x1 %v, dot1x1 %v",
					n, i, pair[0], pair[1], dot1x1(a.Row(i), x))
			}
		}

		if n < 2 {
			continue // depth 0 and 1 take MulT's non-dot paths
		}
		block := NewMatrix(4, 2) // one 4×2 dot panel
		block.MulT(a, b)
		q0, q1, q2, q3 = dotQuad(a0, a1, a2, a3, x)
		for i, q := range []float64{q0, q1, q2, q3} {
			if q != block.At(i, 0) || dotOne(a.Row(i), x) != q {
				t.Fatalf("n=%d row %d dispatched: 4×2 %v, 4×1 %v, single %v",
					n, i, block.At(i, 0), q, dotOne(a.Row(i), x))
			}
		}
	}
}

// TestMulTRowInvariant: row i of MulTBias/MulTAdd is bit-identical to the
// same row multiplied alone, for every batch height and row position —
// the kernel-level half of a window's score not depending on its wave.
func TestMulTRowInvariant(t *testing.T) {
	r := rng.New(11)
	for _, s := range []struct{ k, n int }{{2, 13}, {7, 9}, {50, 200}, {25, 100}} {
		w := randMat(r, s.n, s.k)
		bias := randMat(r, 1, s.n).Row(0)
		for rows := 1; rows <= 9; rows++ {
			a := randMat(r, rows, s.k)
			acc := randMat(r, rows, s.n)
			biased := NewMatrix(rows, s.n)
			biased.MulTBias(a, w, bias)
			summed := acc.Clone()
			summed.MulTAdd(a, w)
			for i := 0; i < rows; i++ {
				one := &Matrix{Rows: 1, Cols: s.k, Data: a.Row(i)}
				alone := NewMatrix(1, s.n)
				alone.MulTBias(one, w, bias)
				aloneAcc := &Matrix{Rows: 1, Cols: s.n, Data: append([]float64(nil), acc.Row(i)...)}
				aloneAcc.MulTAdd(one, w)
				for j := 0; j < s.n; j++ {
					if biased.At(i, j) != alone.At(0, j) || summed.At(i, j) != aloneAcc.At(0, j) {
						t.Fatalf("k=%d n=%d rows=%d: row %d col %d differs from the row alone", s.k, s.n, rows, i, j)
					}
				}
			}
		}
	}
}

func TestColSumsAdd(t *testing.T) {
	m := &Matrix{Rows: 3, Cols: 2, Data: []float64{1, 2, 3, 4, 5, 6}}
	dst := []float64{10, 20}
	m.ColSumsAdd(dst)
	if dst[0] != 19 || dst[1] != 32 {
		t.Fatalf("got %v", dst)
	}
}

func TestGateActivationsRows(t *testing.T) {
	u := 3
	z := NewMatrix(2, 4*u)
	for i := range z.Data {
		z.Data[i] = float64(i%5) - 2
	}
	want := z.Clone()
	z.GateActivationsRows(u)
	for i := range want.Data {
		if j := i % (4 * u); j >= 2*u && j < 3*u {
			want.Data[i] = math.Tanh(want.Data[i])
		} else {
			want.Data[i] = Sigmoid(want.Data[i])
		}
	}
	// The rows go through the vectorized panel activations, which agree
	// with the scalar forms to ~2 ulp, not bit-for-bit.
	matsClose(t, "GateActivationsRows", z, want, 1e-15)
}

func TestGEMMShapePanics(t *testing.T) {
	a := NewMatrix(2, 3)
	bad := NewMatrix(2, 4)
	dst := NewMatrix(2, 2)
	for name, f := range map[string]func(){
		"MulTAdd":  func() { dst.MulTAdd(a, bad) },
		"MulAdd":   func() { dst.MulAdd(a, bad) },
		"MulATAdd": func() { dst.MulATAdd(a, bad) },
		"MulTBias": func() { dst.MulTBias(a, NewMatrix(2, 3), []float64{1}) },
		"ColSums":  func() { dst.ColSumsAdd([]float64{1}) },
		"GateRows": func() { dst.GateActivationsRows(3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected shape panic", name)
				}
			}()
			f()
		}()
	}
}

func TestGEMMAllocFree(t *testing.T) {
	r := rng.New(6)
	a := randMat(r, 32, 50)
	w := randMat(r, 200, 50)
	dst := NewMatrix(32, 200)
	g := NewMatrix(200, 50)
	bias := make([]float64, 200)
	allocs := testing.AllocsPerRun(10, func() {
		dst.MulTBias(a, w, bias)
		g.MulATAdd(dst, a)
		a.MulAdd(dst, w)
	})
	if allocs != 0 {
		t.Fatalf("GEMM kernels allocated %v times per run", allocs)
	}
}

// Benchmarks: batch-32 GEMM versus 32 matvecs at the recurrent kernel's
// working size (the dominant product of the paper's LSTM(50) layers).
func BenchmarkGEMMMulTAddB32(b *testing.B) {
	r := rng.New(7)
	x := randMat(r, 32, 50)
	w := randMat(r, 200, 50)
	dst := NewMatrix(32, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.MulTAdd(x, w)
	}
}

func BenchmarkMatVecX32(b *testing.B) {
	r := rng.New(7)
	x := randMat(r, 32, 50)
	w := randMat(r, 200, 50)
	dst := NewMatrix(32, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for row := 0; row < 32; row++ {
			w.MulVecAdd(dst.Row(row), x.Row(row))
		}
	}
}

func BenchmarkGEMMMulATAddB32(b *testing.B) {
	r := rng.New(8)
	dz := randMat(r, 32, 200)
	x := randMat(r, 32, 50)
	g := NewMatrix(200, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MulATAdd(dz, x)
	}
}

func BenchmarkAddOuterX32(b *testing.B) {
	r := rng.New(8)
	dz := randMat(r, 32, 200)
	x := randMat(r, 32, 50)
	g := NewMatrix(200, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for row := 0; row < 32; row++ {
			g.AddOuter(dz.Row(row), x.Row(row))
		}
	}
}

// TestPanelActivationAccuracy pins the vectorized panel activations to
// the scalar forms within 4 ulp-ish absolute tolerance across sign,
// magnitude and saturation regimes (on non-FMA hosts the panels ARE the
// scalar forms and agree exactly).
func TestPanelActivationAccuracy(t *testing.T) {
	var vals []float64
	for _, base := range []float64{0, 1e-300, 1e-12, 1e-6, 0.1, 0.5, 1, 2.5, 7, 19, 30, 37, 50, 300, 700, 1000} {
		vals = append(vals, base, -base)
	}
	r := rng.New(9)
	for i := 0; i < 257; i++ { // odd length exercises the scalar remainder
		vals = append(vals, r.Normal(0, 3))
	}

	sig := append([]float64(nil), vals...)
	SigmoidPanel(sig)
	for i, x := range vals {
		want := Sigmoid(x)
		if math.Abs(sig[i]-want) > 1e-15 {
			t.Fatalf("SigmoidPanel(%v) = %v, scalar %v", x, sig[i], want)
		}
		if sig[i] < 0 || sig[i] > 1 || math.IsNaN(sig[i]) {
			t.Fatalf("SigmoidPanel(%v) = %v out of range", x, sig[i])
		}
	}

	th := append([]float64(nil), vals...)
	TanhPanel(th)
	for i, x := range vals {
		want := math.Tanh(x)
		if math.Abs(th[i]-want) > 1e-15 {
			t.Fatalf("TanhPanel(%v) = %v, scalar %v", x, th[i], want)
		}
		if th[i] < -1 || th[i] > 1 || math.IsNaN(th[i]) {
			t.Fatalf("TanhPanel(%v) = %v out of range", x, th[i])
		}
	}
}

// TestPanelActivationNaNPropagates pins the diagnostic contract: a NaN
// pre-activation (diverged training) must surface as NaN from the panel
// activations, matching the scalar path, not get silently clamped finite.
func TestPanelActivationNaNPropagates(t *testing.T) {
	nan := math.NaN()
	sig := []float64{0.5, nan, -0.5, nan, 1, 2, 3, nan}
	SigmoidPanel(sig)
	for _, i := range []int{1, 3, 7} {
		if !math.IsNaN(sig[i]) {
			t.Fatalf("SigmoidPanel lane %d: NaN became %v", i, sig[i])
		}
	}
	if math.IsNaN(sig[0]) || math.IsNaN(sig[2]) {
		t.Fatal("SigmoidPanel corrupted finite lanes next to NaN")
	}
	th := []float64{nan, 0.25, nan, -4, nan, 0, 7, 1}
	TanhPanel(th)
	for _, i := range []int{0, 2, 4} {
		if !math.IsNaN(th[i]) {
			t.Fatalf("TanhPanel lane %d: NaN became %v", i, th[i])
		}
	}
	if math.IsNaN(th[1]) || math.IsNaN(th[3]) {
		t.Fatal("TanhPanel corrupted finite lanes next to NaN")
	}
}
