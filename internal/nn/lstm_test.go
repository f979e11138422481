package nn

import (
	"math"
	"testing"

	"github.com/evfed/evfed/internal/mat"
	"github.com/evfed/evfed/internal/rng"
)

// TestLSTMAliasedStepsMatchCopies: ForwardBatch projects each distinct
// step matrix once and copies the projection across steps that alias
// their predecessor (a RepeatVector's output). The same input given as
// deep-copied, distinct step matrices must produce bit-identical outputs,
// gate panels, cell states, parameter gradients and input gradients.
func TestLSTMAliasedStepsMatchCopies(t *testing.T) {
	const T, in, units = 24, 25, 25
	r := rng.New(71)
	l, err := NewLSTM(in, units, true, r)
	if err != nil {
		t.Fatal(err)
	}
	sameBits := func(what string, b int, got, want *mat.Matrix) {
		t.Helper()
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("B=%d %s: element %d is %v aliased, %v copied", b, what, i, got.Data[i], want.Data[i])
			}
		}
	}
	for _, b := range []int{1, 3, 16} {
		step := mat.NewMatrix(b, in)
		for i := range step.Data {
			step.Data[i] = r.Normal(0, 0.5)
		}
		aliased := &BatchSeq{B: b, D: in, Steps: make([]*mat.Matrix, T)}
		copied := &BatchSeq{B: b, D: in, Steps: make([]*mat.Matrix, T)}
		dOut := &BatchSeq{B: b, D: units, Steps: make([]*mat.Matrix, T)}
		for t := range aliased.Steps {
			aliased.Steps[t] = step
			copied.Steps[t] = step.Clone()
			dOut.Steps[t] = mat.NewMatrix(b, units)
			for i := range dOut.Steps[t].Data {
				dOut.Steps[t].Data[i] = r.Normal(0, 0.1)
			}
		}
		type pass struct {
			out, dx *BatchSeq
			cache   *lstmCache
			grads   []*mat.Matrix
		}
		run := func(x *BatchSeq) pass {
			out, cache := l.ForwardBatch(x, &Context{Train: true})
			var grads []*mat.Matrix
			for _, p := range l.Params() {
				grads = append(grads, mat.NewMatrix(p.Value.Rows, p.Value.Cols))
			}
			dx := l.BackwardBatch(cache, dOut, grads)
			return pass{out: out, dx: dx, cache: cache.(*lstmCache), grads: grads}
		}
		got, want := run(aliased), run(copied)
		for t := 0; t < T; t++ {
			sameBits("output", b, got.out.Steps[t], want.out.Steps[t])
			sameBits("gates", b, got.cache.gates[t], want.cache.gates[t])
			sameBits("cell", b, got.cache.c[t], want.cache.c[t])
			sameBits("input gradient", b, got.dx.Steps[t], want.dx.Steps[t])
		}
		for i, g := range want.grads {
			sameBits(l.Params()[i].Name+" gradient", b, got.grads[i], g)
		}
	}
}
