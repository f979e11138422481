package reftest

import (
	"math"
	"testing"

	"github.com/evfed/evfed/internal/nn"
)

// The reference is trusted because these cases are worked out by hand,
// not because it agrees with the code it checks.

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-15 }

// TestLSTMByHand runs a 1-unit LSTM over two steps. Step 1 (x = 1, h = c
// = 0): z = (ln 3, ln 3, atanh ½, 0), so i = f = ¾, g = ½, o = ½, c₁ =
// ¾·½ = 3/8 and h₁ = ½·tanh(3/8). Step 2 (x = 0): only the forget bias
// and the recurrent output weight 2 act, so i = ½, f = ¾, g = 0,
// o = σ(2h₁), c₂ = ¾·3/8 = 9/32 and h₂ = σ(2h₁)·tanh(9/32).
func TestLSTMByHand(t *testing.T) {
	ln3 := math.Log(3)
	weights := []float64{
		ln3, 0, math.Atanh(0.5), 0, // wx: i, f, g, o
		0, 0, 0, 2, // wh
		0, ln3, 0, 0, // b
	}
	h1 := 0.5 * math.Tanh(3.0/8)
	h2 := 1 / (1 + math.Exp(-2*h1)) * math.Tanh(9.0/32)
	for _, returnSeq := range []bool{true, false} {
		spec := nn.Spec{Layers: []nn.LayerSpec{{Kind: "lstm", In: 1, Out: 1, ReturnSeq: returnSeq}}}
		out, err := Forward(spec, weights, [][]float64{{1}, {0}})
		if err != nil {
			t.Fatal(err)
		}
		want := [][]float64{{h1}, {h2}}
		if !returnSeq {
			want = want[1:]
		}
		if len(out) != len(want) {
			t.Fatalf("returnSeq %v: %d steps, want %d", returnSeq, len(out), len(want))
		}
		for k := range want {
			if len(out[k]) != 1 || !near(out[k][0], want[k][0]) {
				t.Fatalf("returnSeq %v step %d: %v, want %v", returnSeq, k, out[k], want[k])
			}
		}
	}
}

// TestDenseRepeatByHand: Dense(2→1) with w = (2, −1), b = ½ maps (3, 4)
// to 2·3 − 4 + ½ = 5/2; RepeatVector makes three copies; Dense(1→2, relu)
// with w = (1, −1), b = (0, 1) maps each to (5/2, max(0, −3/2)) = (5/2, 0);
// dropout is the identity at inference; Dense(2→1, tanh) with unit
// weights gives tanh(5/2) and Dense(1→1, sigmoid) σ(tanh(5/2)).
func TestDenseRepeatByHand(t *testing.T) {
	spec := nn.Spec{Layers: []nn.LayerSpec{
		{Kind: "dense", In: 2, Out: 1},
		{Kind: "repeat", In: 1, Times: 3},
		{Kind: "dense", In: 1, Out: 2, Act: "relu"},
		{Kind: "dropout", In: 2, Rate: 0.5},
		{Kind: "dense", In: 2, Out: 1, Act: "tanh"},
		{Kind: "dense", In: 1, Out: 1, Act: "sigmoid"},
	}}
	weights := []float64{
		2, -1, 0.5,
		1, -1, 0, 1,
		1, 1, 0,
		1, 0,
	}
	out, err := Forward(spec, weights, [][]float64{{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (1 + math.Exp(-math.Tanh(2.5)))
	if len(out) != 3 {
		t.Fatalf("%d steps, want 3", len(out))
	}
	for k := range out {
		if len(out[k]) != 1 || !near(out[k][0], want) {
			t.Fatalf("step %d: %v, want %v", k, out[k], want)
		}
	}
}

func TestForwardErrors(t *testing.T) {
	dense := nn.Spec{Layers: []nn.LayerSpec{{Kind: "dense", In: 2, Out: 1}}}
	cases := []struct {
		name    string
		spec    nn.Spec
		weights []float64
		x       [][]float64
	}{
		{"no layers", nn.Spec{}, nil, [][]float64{{1}}},
		{"short weights", dense, []float64{1, 2}, [][]float64{{1, 2}}},
		{"long weights", dense, []float64{1, 2, 3, 4}, [][]float64{{1, 2}}},
		{"feature width", dense, []float64{1, 2, 3}, [][]float64{{1}}},
		{"unknown kind", nn.Spec{Layers: []nn.LayerSpec{{Kind: "gru", In: 1, Out: 1}}}, nil, [][]float64{{1}}},
		{"activation", nn.Spec{Layers: []nn.LayerSpec{{Kind: "dense", In: 1, Out: 1, Act: "gelu"}}}, []float64{1, 0}, [][]float64{{1}}},
		{"repeat of a sequence", nn.Spec{Layers: []nn.LayerSpec{{Kind: "repeat", In: 1, Times: 2}}}, nil, [][]float64{{1}, {2}}},
	}
	for _, c := range cases {
		if _, err := Forward(c.spec, c.weights, c.x); err == nil {
			t.Fatalf("%s: want an error", c.name)
		}
	}
}

// TestReplayByHand uses a model that reconstructs every point as ½, so a
// point's score is (x − ½)² and a flagged point is mitigated to ½.
func TestReplayByHand(t *testing.T) {
	spec := nn.Spec{Layers: []nn.LayerSpec{{Kind: "dense", In: 1, Out: 1}}}
	weights := []float64{0, 0.5}
	values := []float64{0.5, 1, 0.5, 2.5, 0.25}
	for _, mitigate := range []bool{false, true} {
		got, err := Replay(spec, weights, 2, 1, mitigate, values)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range got {
			wantScore := 0.0
			if i > 0 {
				wantScore = (values[i] - 0.5) * (values[i] - 0.5)
			}
			flagged := i == 3 // (2.5 − ½)² = 4 > 1
			wantMit := values[i]
			if flagged && mitigate {
				wantMit = 0.5
			}
			if d.Index != i || d.Ready != (i > 0) || d.Score != wantScore || d.Flagged != flagged || d.Mitigated != wantMit {
				t.Fatalf("mitigate %v point %d: %+v, want score %v flagged %v mitigated %v",
					mitigate, i, d, wantScore, flagged, wantMit)
			}
		}
	}
	if _, err := Replay(spec, weights, 0, 1, false, values); err == nil {
		t.Fatal("window length 0: want an error")
	}
}
