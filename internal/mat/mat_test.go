package mat

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/evfed/evfed/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestMulVec: MulVecAdd into a zeroed dst is the plain product m · x.
func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	dst := make([]float64, 2)
	m.MulVecAdd(dst, x)
	if dst[0] != -2 || dst[1] != -2 {
		t.Fatalf("m · x = %v, want [-2 -2]", dst)
	}
}

func TestMulVecAdd(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 0, 0, 1})
	dst := []float64{10, 20}
	m.MulVecAdd(dst, []float64{1, 2})
	if dst[0] != 11 || dst[1] != 22 {
		t.Fatalf("MulVecAdd = %v", dst)
	}
}

// TestMulVecT: MulVecTAdd into a zeroed dst is the plain product mᵀ · x.
func TestMulVecT(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 1}
	dst := make([]float64, 3)
	m.MulVecTAdd(dst, x)
	want := []float64{5, 7, 9}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("mᵀ · x = %v, want %v", dst, want)
		}
	}
}

// Property: for random m, x, y it holds that yᵀ(Mx) == (Mᵀy)ᵀx.
func TestTransposeAdjointProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		rows, cols := 1+r.Intn(8), 1+r.Intn(8)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.Normal(0, 1)
		}
		x := make([]float64, cols)
		y := make([]float64, rows)
		for i := range x {
			x[i] = r.Normal(0, 1)
		}
		for i := range y {
			y[i] = r.Normal(0, 1)
		}
		mx := make([]float64, rows)
		m.MulVecAdd(mx, x)
		mty := make([]float64, cols)
		m.MulVecTAdd(mty, y)
		dot := func(a, b []float64) (s float64) {
			for i := range a {
				s += a[i] * b[i]
			}
			return s
		}
		return almostEq(dot(y, mx), dot(mty, x), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuter([]float64{1, 2}, []float64{3, 4})
	want := []float64{3, 4, 6, 8}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("AddOuter = %v, want %v", m.Data, want)
		}
	}
	// Accumulates rather than overwrites.
	m.AddOuter([]float64{1, 0}, []float64{1, 1})
	if m.Data[0] != 4 || m.Data[1] != 5 {
		t.Fatalf("AddOuter did not accumulate: %v", m.Data)
	}
}

func TestShapePanics(t *testing.T) {
	m := NewMatrix(2, 3)
	cases := []func(){
		func() { m.MulVecAdd(make([]float64, 2), make([]float64, 2)) },
		func() { m.MulVecTAdd(make([]float64, 2), make([]float64, 3)) },
		func() { m.AddOuter(make([]float64, 3), make([]float64, 3)) },
		func() { AddVec([]float64{1}, []float64{1, 2}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestXavierInitBounds(t *testing.T) {
	r := rng.New(1)
	m := NewMatrix(50, 50)
	m.XavierInit(r, 50, 50)
	limit := math.Sqrt(6.0 / 100.0)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("Xavier value %v outside ±%v", v, limit)
		}
	}
	// Not all zero.
	if MaxAbs(m.Data) == 0 {
		t.Fatal("Xavier produced all zeros")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewMatrix(1, 2)
	m.Data[0] = 5
	c := m.Clone()
	c.Data[0] = 7
	if m.Data[0] != 5 {
		t.Fatal("Clone shares backing array")
	}
}

func TestClipNorm(t *testing.T) {
	v := []float64{3, 4}
	s := ClipNorm(v, 1)
	if !almostEq(Norm2(v), 1, 1e-12) {
		t.Fatalf("clipped norm %v", Norm2(v))
	}
	if !almostEq(s, 0.2, 1e-12) {
		t.Fatalf("scale %v", s)
	}
	w := []float64{0.3, 0.4}
	if s := ClipNorm(w, 1); s != 1 {
		t.Fatalf("unnecessary clip, scale %v", s)
	}
	if s := ClipNorm(v, 0); s != 1 {
		t.Fatalf("limit<=0 should be a no-op, scale %v", s)
	}
}

func TestHelpers(t *testing.T) {
	v := []float64{1, -2, 3}
	if MaxAbs(v) != 3 {
		t.Fatalf("MaxAbs = %v", MaxAbs(v))
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("Norm2")
	}
	d := []float64{1, 1}
	Axpy(2, d, []float64{1, 2})
	if d[0] != 3 || d[1] != 5 {
		t.Fatalf("Axpy = %v", d)
	}
	h := make([]float64, 2)
	Hadamard(h, []float64{2, 3}, []float64{4, 5})
	if h[0] != 8 || h[1] != 15 {
		t.Fatalf("Hadamard = %v", h)
	}
	Fill(h, 9)
	if h[0] != 9 || h[1] != 9 {
		t.Fatalf("Fill = %v", h)
	}
	Scale(0.5, h)
	if h[0] != 4.5 {
		t.Fatalf("Scale = %v", h)
	}
}

func BenchmarkMulVecAdd50(b *testing.B) {
	m := NewMatrix(200, 51)
	x := make([]float64, 51)
	dst := make([]float64, 200)
	for i := 0; i < b.N; i++ {
		m.MulVecAdd(dst, x)
	}
}
