package mat

import (
	"math"
	"testing"

	"github.com/evfed/evfed/internal/rng"
)

// The unrolled kernels must agree with a naive reference implementation to
// within FP re-association error, across lengths that exercise every
// remainder branch of the 4-way unroll.

func refMulVec(m *Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var sum float64
		for j := 0; j < m.Cols; j++ {
			sum += m.At(i, j) * x[j]
		}
		out[i] = sum
	}
	return out
}

func randMatrix(r *rng.Source, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Normal(0, 1)
	}
	return m
}

func randVec(r *rng.Source, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Normal(0, 1)
	}
	return v
}

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestUnrolledKernelsMatchReference(t *testing.T) {
	r := rng.New(11)
	const tol = 1e-12
	for _, cols := range []int{1, 2, 3, 4, 5, 7, 8, 13, 50, 200} {
		rows := cols + 3
		m := randMatrix(r, rows, cols)
		x := randVec(r, cols)
		y := randVec(r, rows)

		// MulVecAdd accumulates on top of existing content.
		want := refMulVec(m, x)
		got2 := randVec(r, rows)
		base := append([]float64(nil), got2...)
		m.MulVecAdd(got2, x)
		for i := range got2 {
			if !almostEqual(got2[i], base[i]+want[i], tol) {
				t.Fatalf("cols=%d MulVecAdd[%d]: %v vs %v", cols, i, got2[i], base[i]+want[i])
			}
		}

		// MulVecTAdd against a transposed reference.
		wantT := make([]float64, cols)
		for j := 0; j < cols; j++ {
			var sum float64
			for i := 0; i < rows; i++ {
				sum += m.At(i, j) * y[i]
			}
			wantT[j] = sum
		}
		gotTA := randVec(r, cols)
		baseT := append([]float64(nil), gotTA...)
		m.MulVecTAdd(gotTA, y)
		for j := range gotTA {
			if !almostEqual(gotTA[j], baseT[j]+wantT[j], tol) {
				t.Fatalf("cols=%d MulVecTAdd[%d]: %v vs %v", cols, j, gotTA[j], baseT[j]+wantT[j])
			}
		}

		// AddOuter.
		acc := randMatrix(r, rows, cols)
		wantM := acc.Clone()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				wantM.Set(i, j, wantM.At(i, j)+y[i]*x[j])
			}
		}
		acc.AddOuter(y, x)
		for i := range acc.Data {
			if !almostEqual(acc.Data[i], wantM.Data[i], tol) {
				t.Fatalf("cols=%d AddOuter[%d]: %v vs %v", cols, i, acc.Data[i], wantM.Data[i])
			}
		}
	}
}

// TestGateActivations pins the gate layout in closed form: at a zero
// pre-activation the σ gates (i, f, o) are exactly 1/2 and the tanh gate
// (g) exactly 0, and far from zero each saturates to its limit.
func TestGateActivations(t *testing.T) {
	const u = 5
	z := NewMatrix(3, 4*u)
	for j := range z.Cols {
		z.Set(1, j, 40)
		z.Set(2, j, -40)
	}
	z.GateActivationsRows(u)
	for j := range z.Cols {
		want := [3]float64{0.5, 1, 0} // σ(0), σ(40), σ(-40)
		if j >= 2*u && j < 3*u {
			want = [3]float64{0, 1, -1} // tanh(0), tanh(40), tanh(-40)
		}
		for i := range want {
			if math.Abs(z.At(i, j)-want[i]) > 1e-15 {
				t.Fatalf("row %d gate %d: %v, want %v", i, j, z.At(i, j), want[i])
			}
		}
	}
}

func TestGateActivationsPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(1, 7).GateActivationsRows(2)
}

func TestSigmoidStable(t *testing.T) {
	for _, v := range []float64{-1000, -50, 0, 50, 1000} {
		s := Sigmoid(v)
		if math.IsNaN(s) || s < 0 || s > 1 {
			t.Fatalf("Sigmoid(%v) = %v", v, s)
		}
	}
	if Sigmoid(0) != 0.5 {
		t.Fatalf("Sigmoid(0) = %v", Sigmoid(0))
	}
}
