package mat

import (
	"math"
	"math/big"
	"testing"

	"github.com/evfed/evfed/internal/rng"
)

// TestAxpyCompExactVsBigFloat checks the Neumaier invariant the federated
// fold relies on: dst+comp tracks the exact running sum far more tightly
// than a naive fold, even through catastrophic cancellation.
func TestAxpyCompExactVsBigFloat(t *testing.T) {
	terms := []float64{1e16, 1.5, -1e16, 2.25, 1e100, 3.0, -1e100, -4.5, 1e-30}
	dst := []float64{0}
	comp := []float64{0}
	naive := 0.0
	exact := new(big.Float).SetPrec(400)
	for _, v := range terms {
		AxpyComp(1, dst, comp, []float64{v})
		naive += v
		exact.Add(exact, new(big.Float).SetPrec(400).SetFloat64(v))
	}
	want, _ := exact.Float64()
	got := dst[0] + comp[0]
	if got != want {
		t.Fatalf("compensated sum %v, exact %v", got, want)
	}
	if naive == want {
		t.Fatal("test terms do not provoke cancellation — naive sum already exact")
	}
}

// TestAxpyCompGroupedMatchesFlat is the unit-level statement of the
// hierarchy parity theorem: folding terms per group and merging the
// (sum, compensation) pairs — merge the sums compensated, add the
// compensations raw — represents the same value as one flat fold.
func TestAxpyCompGroupedMatchesFlat(t *testing.T) {
	const dim = 64
	const n = 48
	r := rng.New(42)
	terms := make([][]float64, n)
	weights := make([]float64, n)
	for i := range terms {
		terms[i] = make([]float64, dim)
		for j := range terms[i] {
			terms[i][j] = r.Normal(0, 1) * math.Pow(10, float64(j%9-4))
		}
		weights[i] = float64(1 + r.Intn(50))
	}

	flatAcc, flatComp := make([]float64, dim), make([]float64, dim)
	for i := range terms {
		AxpyComp(weights[i], flatAcc, flatComp, terms[i])
	}

	for _, groups := range []int{2, 3, 6} {
		rootAcc, rootComp := make([]float64, dim), make([]float64, dim)
		per := n / groups
		for g := 0; g < groups; g++ {
			acc, comp := make([]float64, dim), make([]float64, dim)
			for i := g * per; i < (g+1)*per; i++ {
				AxpyComp(weights[i], acc, comp, terms[i])
			}
			AxpyComp(1, rootAcc, rootComp, acc)
			AddVec(rootComp, comp)
		}
		for j := 0; j < dim; j++ {
			flat := flatAcc[j] + flatComp[j]
			grouped := rootAcc[j] + rootComp[j]
			if math.Float64bits(flat) != math.Float64bits(grouped) {
				t.Fatalf("%d groups, coordinate %d: grouped %v != flat %v",
					groups, j, grouped, flat)
			}
		}
	}
}

// refAxpyComp is a verbatim copy of the scalar TwoSum loop, the
// reference the vector kernel must reproduce bit for bit.
func refAxpyComp(alpha float64, dst, comp, src []float64) {
	for i, v := range src {
		t := float64(alpha * v)
		d := dst[i]
		s := d + t
		bb := s - d
		comp[i] += (d - (s - bb)) + (t - bb)
		dst[i] = s
	}
}

// neumaierAxpyComp is the fold's earlier step, Neumaier's
// magnitude-compare form of Fast2Sum.
func neumaierAxpyComp(alpha float64, dst, comp, src []float64) {
	for i, v := range src {
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

// specialValue draws from magnitudes 1e-15…1e15 of either sign, with
// ±0, ±Inf, NaN and ±MaxFloat64 mixed in.
func specialValue(r *rng.Source) float64 {
	switch r.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return math.NaN()
	case 5:
		return math.MaxFloat64 * float64(1-2*r.Intn(2))
	default:
		return float64(1-2*r.Intn(2)) * math.Pow(10, r.Range(-15, 15))
	}
}

// TestAxpyCompMatchesScalar folds several terms into the same dst/comp
// through AxpyComp and through refAxpyComp, for every length 0…67 (every
// n % 4 tail, with and without a full vector step) and alphas of both
// signs up to overflow, and requires the same bits in dst and comp.
func TestAxpyCompMatchesScalar(t *testing.T) {
	r := rng.New(23)
	alphas := []float64{1, -1, 0.37, -2.5e3, 1e300, -1e300, 5e-324}
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 4; trial++ {
			special := trial%2 == 1
			draw := func() float64 {
				if special {
					return specialValue(r)
				}
				return float64(1-2*r.Intn(2)) * math.Pow(10, r.Range(-15, 15))
			}
			// Offset by one element so the vector loads are unaligned.
			dst, comp := make([]float64, n+1)[1:], make([]float64, n+1)[1:]
			for i := range dst {
				dst[i] = draw()
			}
			wantDst, wantComp := append([]float64(nil), dst...), append([]float64(nil), comp...)
			for _, alpha := range alphas {
				src := make([]float64, n)
				for i := range src {
					src[i] = draw()
				}
				AxpyComp(alpha, dst, comp, src)
				refAxpyComp(alpha, wantDst, wantComp, src)
				for i := range dst {
					if math.Float64bits(dst[i]) != math.Float64bits(wantDst[i]) ||
						math.Float64bits(comp[i]) != math.Float64bits(wantComp[i]) {
						t.Fatalf("n=%d alpha=%g i=%d: (dst, comp) = (%v, %v), scalar (%v, %v)",
							n, alpha, i, dst[i], comp[i], wantDst[i], wantComp[i])
					}
				}
			}
		}
	}
}

// TestTwoSumMatchesNeumaier holds the TwoSum fold to the Neumaier step it
// replaced, bit for bit, on finite inputs whose sums do not overflow:
// both compute the exact rounding error of every addition. It folds ten
// updates into each of 200,000 lanes drawn from wide magnitudes,
// subnormals, signed zeros and near-cancelling pairs, with α up to 1e100,
// through the kernel in use and through the scalar loop.
func TestTwoSumMatchesNeumaier(t *testing.T) {
	const n, folds = 200_000, 10
	r := rng.New(31)
	draw := func() float64 {
		sign := float64(1 - 2*r.Intn(2))
		switch r.Intn(6) {
		case 0:
			return sign * math.SmallestNonzeroFloat64 * float64(1+r.Intn(1<<20))
		case 1:
			return math.Copysign(0, sign)
		default:
			return sign * math.Pow(10, r.Range(-300, 150))
		}
	}
	dst, comp := make([]float64, n), make([]float64, n)
	for i := range dst {
		dst[i] = draw()
	}
	scalarDst, scalarComp := append([]float64(nil), dst...), append([]float64(nil), comp...)
	wantDst, wantComp := append([]float64(nil), dst...), append([]float64(nil), comp...)
	src := make([]float64, n)
	for f := 0; f < folds; f++ {
		alpha := []float64{1, -1, 57, 0.37, -2.5e-3, 1e100, -1e-100, 3}[f%8]
		for i := range src {
			src[i] = draw()
			// Near-cancellation: t ≈ −dst, off by a few ulps, where the
			// source stays in the drawn range.
			if c := -dst[i] / alpha * (1 + float64(r.Intn(9)-4)*0x1p-52); r.Intn(4) == 0 && math.Abs(c) < 1e150 {
				src[i] = c
			}
		}
		AxpyComp(alpha, dst, comp, src)
		refAxpyComp(alpha, scalarDst, scalarComp, src)
		neumaierAxpyComp(alpha, wantDst, wantComp, src)
	}
	for i := range dst {
		for _, got := range [][2]float64{{dst[i], comp[i]}, {scalarDst[i], scalarComp[i]}} {
			if math.IsInf(wantDst[i], 0) || math.IsNaN(wantComp[i]) {
				t.Fatalf("lane %d overflowed: (%v, %v); the draw must stay finite", i, wantDst[i], wantComp[i])
			}
			if math.Float64bits(got[0]) != math.Float64bits(wantDst[i]) ||
				math.Float64bits(got[1]) != math.Float64bits(wantComp[i]) {
				t.Fatalf("lane %d: TwoSum (%v, %v), Neumaier (%v, %v)",
					i, got[0], got[1], wantDst[i], wantComp[i])
			}
		}
	}
}

// TestAxpyComp4MatchesAxpyComp folds updates four at a time through
// AxpyComp4 and one at a time through AxpyComp, for every length 0…67
// (every tail of the four- and eight-lane passes), over the special values
// of TestAxpyCompMatchesScalar, and requires the same bits, NaN payloads
// included.
func TestAxpyComp4MatchesAxpyComp(t *testing.T) {
	r := rng.New(37)
	alphas := [4]float64{1, -2.5e3, 1e300, 0.37}
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 4; trial++ {
			draw := func() float64 {
				if trial%2 == 1 {
					return specialValue(r)
				}
				return float64(1-2*r.Intn(2)) * math.Pow(10, r.Range(-15, 15))
			}
			// Offset by one element so the vector loads are unaligned.
			dst, comp := make([]float64, n+1)[1:], make([]float64, n+1)[1:]
			for i := range dst {
				dst[i], comp[i] = draw(), draw()*1e-17
			}
			wantDst, wantComp := append([]float64(nil), dst...), append([]float64(nil), comp...)
			for pass := 0; pass < 3; pass++ {
				var src [4][]float64
				for j := range src {
					src[j] = make([]float64, n)
					for i := range src[j] {
						src[j][i] = draw()
					}
				}
				AxpyComp4(alphas, dst, comp, src)
				for j := range src {
					AxpyComp(alphas[j], wantDst, wantComp, src[j])
				}
				for i := range dst {
					if math.Float64bits(dst[i]) != math.Float64bits(wantDst[i]) ||
						math.Float64bits(comp[i]) != math.Float64bits(wantComp[i]) {
						t.Fatalf("n=%d pass %d i=%d: AxpyComp4 (%v, %v), four AxpyComp (%v, %v)",
							n, pass, i, dst[i], comp[i], wantDst[i], wantComp[i])
					}
				}
			}
		}
	}
}

// TestFirstNonFinite plants +Inf, -Inf, a quiet NaN and a payload NaN at
// every index of every length 0…67 among finite extremes (±MaxFloat64,
// subnormals, ±0), and a second one after it, which must not be reported.
func TestFirstNonFinite(t *testing.T) {
	finite := []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		-2.5e-310, 0, math.Copysign(0, -1), 1, -3.75}
	bad := []float64{math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0_0000_dead_beef), math.Float64frombits(0xfff8_0000_0000_0001)}
	for n := 0; n <= 67; n++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = finite[i%len(finite)]
		}
		if got := FirstNonFinite(v); got != -1 {
			t.Fatalf("n=%d all finite: got %d", n, got)
		}
		for i := 0; i < n; i++ {
			for k, b := range bad {
				v[i] = b
				if got := FirstNonFinite(v); got != i {
					t.Fatalf("n=%d: %v at %d: got %d", n, b, i, got)
				}
				if j := i + 1 + k%3; j < n {
					v[j] = bad[(k+1)%len(bad)]
					if got := FirstNonFinite(v); got != i {
						t.Fatalf("n=%d: %v at %d and %d: got %d", n, b, i, j, got)
					}
					v[j] = finite[j%len(finite)]
				}
			}
			v[i] = finite[i%len(finite)]
		}
	}
}

func TestAxpyCompFirstNonFiniteAllocFree(t *testing.T) {
	dst, comp, src := make([]float64, 103), make([]float64, 103), make([]float64, 103)
	for i := range src {
		src[i] = float64(i) - 50.5
	}
	if allocs := testing.AllocsPerRun(100, func() { AxpyComp(0.5, dst, comp, src) }); allocs != 0 {
		t.Fatalf("AxpyComp allocated %v times per call", allocs)
	}
	srcs := [4][]float64{src, src, src, src}
	if allocs := testing.AllocsPerRun(100, func() { AxpyComp4([4]float64{1, 2, 3, 4}, dst, comp, srcs) }); allocs != 0 {
		t.Fatalf("AxpyComp4 allocated %v times per call", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { FirstNonFinite(src) }); allocs != 0 {
		t.Fatalf("FirstNonFinite allocated %v times per call", allocs)
	}
}

// updateDim is the parameter count of nn.ForecasterSpec(50, 10), the
// update the benchmark's fed-tree workload folds.
const updateDim = 10921

func BenchmarkAxpyComp(b *testing.B) {
	r := rng.New(24)
	dst, comp, src := make([]float64, updateDim), make([]float64, updateDim), make([]float64, updateDim)
	for i := range src {
		src[i] = r.Normal(0, 0.1)
	}
	b.SetBytes(3 * 8 * updateDim)
	for b.Loop() {
		AxpyComp(57, dst, comp, src)
	}
}

// BenchmarkAxpyComp4 folds four updates per call, so its ns/op over four
// is the per-update cost to set beside BenchmarkAxpyComp's.
func BenchmarkAxpyComp4(b *testing.B) {
	r := rng.New(26)
	dst, comp := make([]float64, updateDim), make([]float64, updateDim)
	var src [4][]float64
	for j := range src {
		src[j] = make([]float64, updateDim)
		for i := range src[j] {
			src[j][i] = r.Normal(0, 0.1)
		}
	}
	b.SetBytes(6 * 8 * updateDim)
	for b.Loop() {
		AxpyComp4([4]float64{57, 61, 53, 59}, dst, comp, src)
	}
}

func BenchmarkFirstNonFinite(b *testing.B) {
	r := rng.New(25)
	v := make([]float64, updateDim)
	for i := range v {
		v[i] = r.Normal(0, 0.1)
	}
	b.SetBytes(8 * updateDim)
	for b.Loop() {
		if FirstNonFinite(v) != -1 {
			b.Fatal("finite vector reported non-finite")
		}
	}
}

func TestAxpyCompPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on mismatched lengths")
		}
	}()
	AxpyComp(1, make([]float64, 2), make([]float64, 3), make([]float64, 2))
}
