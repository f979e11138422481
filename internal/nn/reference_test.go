package nn_test

import (
	"math"
	"testing"

	"github.com/evfed/evfed/internal/nn"
	"github.com/evfed/evfed/internal/reftest"
	"github.com/evfed/evfed/internal/rng"
)

// refTol bounds |production − reference| relative to max(1, |reference|):
// the GEMMs sum in blocked order and may fuse multiply-adds, the reference
// sums left to right, and the vectorized activations are within ~2 ulp of
// math.Exp/math.Tanh.
const refTol = 1e-12

// TestForwardMatchesReference holds every layer kind's ForwardBatch, run
// through PredictBatchWS at batch heights 1, 3 and 32, to the naive
// reference forward pass in internal/reftest.
func TestForwardMatchesReference(t *testing.T) {
	specs := []struct {
		spec nn.Spec
		t    int
	}{
		{nn.ForecasterSpec(10, 6), 24},
		{nn.AutoencoderSpec(8, 10, 5, 0.2), 8},
		{nn.Spec{Name: "stacked-lstm", Layers: []nn.LayerSpec{
			{Kind: "lstm", In: 2, Out: 7, ReturnSeq: true},
			{Kind: "lstm", In: 7, Out: 4, ReturnSeq: true},
		}}, 9},
		{nn.Spec{Name: "dense-acts", Layers: []nn.LayerSpec{
			{Kind: "dense", In: 3, Out: 5, Act: "tanh"},
			{Kind: "dense", In: 5, Out: 4, Act: "sigmoid"},
			{Kind: "dense", In: 4, Out: 2, Act: "relu"},
		}}, 4},
	}
	r := rng.New(3)
	for _, s := range specs {
		m, err := nn.Build(s.spec, 17)
		if err != nil {
			t.Fatal(err)
		}
		weights := m.WeightsVector()
		d := s.spec.Layers[0].In
		ws := nn.NewWorkspace()
		for _, b := range []int{1, 3, 32} {
			xs := make([]nn.Seq, b)
			for i := range xs {
				xs[i] = make(nn.Seq, s.t)
				for k := range xs[i] {
					xs[i][k] = make([]float64, d)
					for j := range xs[i][k] {
						xs[i][k][j] = r.Normal(0, 1)
					}
				}
			}
			got := m.PredictBatchWS(xs, ws)
			for i, x := range xs {
				want, err := reftest.Forward(s.spec, weights, x)
				if err != nil {
					t.Fatal(err)
				}
				if len(got[i]) != len(want) {
					t.Fatalf("%s B=%d sample %d: %d timesteps, reference %d", s.spec.Name, b, i, len(got[i]), len(want))
				}
				for k := range want {
					for j := range want[k] {
						g, w := got[i][k][j], want[k][j]
						if math.Abs(g-w) > refTol*math.Max(1, math.Abs(w)) {
							t.Fatalf("%s B=%d sample %d t=%d j=%d: %v, reference %v", s.spec.Name, b, i, k, j, g, w)
						}
					}
				}
			}
		}
	}
}
