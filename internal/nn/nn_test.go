package nn

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"github.com/evfed/evfed/internal/rng"
)

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(ForecasterSpec(8, 4), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(ForecasterSpec(8, 4), 42)
	if err != nil {
		t.Fatal(err)
	}
	wa, wb := a.WeightsVector(), b.WeightsVector()
	if len(wa) != len(wb) {
		t.Fatalf("weight lengths differ: %d vs %d", len(wa), len(wb))
	}
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("weights differ at %d", i)
		}
	}
	c, err := Build(ForecasterSpec(8, 4), 43)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i, v := range c.WeightsVector() {
		if v != wa[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical weights")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Spec{}, 1); !errors.Is(err, ErrNoLayers) {
		t.Fatalf("want ErrNoLayers, got %v", err)
	}
	for _, kind := range []string{"conv", "gru"} {
		if _, err := Build(Spec{Layers: []LayerSpec{{Kind: kind, In: 1, Out: 1}}}, 1); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("%s: want ErrBadConfig, got %v", kind, err)
		}
	}
	if _, err := Build(Spec{Layers: []LayerSpec{{Kind: "dense", In: 0, Out: 1}}}, 1); err == nil {
		t.Fatal("zero-dim dense should error")
	}
}

func TestWeightsVectorRoundTrip(t *testing.T) {
	m, err := Build(ForecasterSpec(8, 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	w := m.WeightsVector()
	for i := range w {
		w[i] = float64(i) * 0.01
	}
	if err := m.SetWeightsVector(w); err != nil {
		t.Fatal(err)
	}
	got := m.WeightsVector()
	for i := range w {
		if got[i] != w[i] {
			t.Fatalf("weight %d: %v != %v", i, got[i], w[i])
		}
	}
	if err := m.SetWeightsVector(w[:len(w)-1]); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestSaveLoadWeights(t *testing.T) {
	m, err := Build(AutoencoderSpec(6, 8, 4, 0.2), 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Build(AutoencoderSpec(6, 8, 4, 0.2), 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	w1, w2 := m.WeightsVector(), m2.WeightsVector()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("weight %d differs after load", i)
		}
	}
	// Shape mismatch rejected.
	var buf2 bytes.Buffer
	if err := m.SaveWeights(&buf2); err != nil {
		t.Fatal(err)
	}
	m3, err := Build(AutoencoderSpec(6, 9, 4, 0.2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m3.LoadWeights(&buf2); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestBinaryWeightsRoundTrip(t *testing.T) {
	m, err := Build(ForecasterSpec(10, 5), 5)
	if err != nil {
		t.Fatal(err)
	}
	frame := m.MarshalWeightsBinary()
	m2, err := Build(ForecasterSpec(10, 5), 77)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.UnmarshalWeightsBinary(frame); err != nil {
		t.Fatal(err)
	}
	w1, w2 := m.WeightsVector(), m2.WeightsVector()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("binary round trip differs at %d", i)
		}
	}
	if err := m2.UnmarshalWeightsBinary(frame[:7]); !errors.Is(err, ErrShape) {
		t.Fatalf("short frame: want ErrShape, got %v", err)
	}
	if err := m2.UnmarshalWeightsBinary(frame[:len(frame)-8]); !errors.Is(err, ErrShape) {
		t.Fatalf("truncated frame: want ErrShape, got %v", err)
	}
}

func TestPredictShapes(t *testing.T) {
	m, err := Build(ForecasterSpec(50, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	x := randSeq(rng.New(1), 24, 1)
	out := m.Predict(x)
	if len(out) != 1 || len(out[0]) != 1 {
		t.Fatalf("forecaster output shape [%d][%d]", len(out), len(out[0]))
	}

	ae, err := Build(AutoencoderSpec(24, 50, 25, 0.2), 2)
	if err != nil {
		t.Fatal(err)
	}
	rec := ae.Predict(x)
	if len(rec) != 24 || len(rec[0]) != 1 {
		t.Fatalf("autoencoder output shape [%d][%d]", len(rec), len(rec[0]))
	}
}

func TestDropoutInferenceIdentity(t *testing.T) {
	d, err := NewDropout(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	xs := randSeqs(rng.New(1), 2, 4, 3)
	out, _ := d.ForwardBatch(packSeqBatch(nil, xs, nil), &Context{Train: false})
	for b, x := range xs {
		seqsWithin(t, "dropout at inference", sampleView(nil, out, b), x, 0)
	}
}

func TestDropoutTrainStatistics(t *testing.T) {
	d, err := NewDropout(1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := Context{Train: true, BatchRNGs: []*rng.Source{rng.New(7)}}
	x := packSeqBatch(nil, []Seq{{{1}}}, nil)
	zeros, sum := 0, 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		out, _ := d.ForwardBatch(x, &ctx)
		v := out.Steps[0].Data[0]
		if v == 0 {
			zeros++
		}
		sum += v
	}
	dropRate := float64(zeros) / n
	if math.Abs(dropRate-0.2) > 0.02 {
		t.Fatalf("drop rate %v want 0.2", dropRate)
	}
	// Inverted dropout preserves the expectation.
	if mean := sum / n; math.Abs(mean-1) > 0.03 {
		t.Fatalf("dropout mean %v want 1", mean)
	}
}

func TestDropoutConfigErrors(t *testing.T) {
	if _, err := NewDropout(0, 0.1); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
	if _, err := NewDropout(1, 1); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
	if _, err := NewDropout(1, -0.1); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
}

func TestLSTMForgetBiasInit(t *testing.T) {
	l, err := NewLSTM(1, 4, false, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	b := l.Params()[2].Value.Row(0)
	for j := 0; j < 4; j++ {
		if b[4+j] != 1 {
			t.Fatalf("forget bias not 1: %v", b)
		}
		if b[j] != 0 || b[8+j] != 0 || b[12+j] != 0 {
			t.Fatalf("non-forget bias not 0: %v", b)
		}
	}
}

func TestActivationParse(t *testing.T) {
	for _, name := range []string{"linear", "relu", "tanh", "sigmoid", ""} {
		if _, err := ParseActivation(name); err != nil {
			t.Fatalf("ParseActivation(%q): %v", name, err)
		}
	}
	if _, err := ParseActivation("gelu"); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
}

func TestActivationValues(t *testing.T) {
	if ReLU.apply(-1) != 0 || ReLU.apply(2) != 2 {
		t.Fatal("relu")
	}
	if math.Abs(Sigmoid.apply(0)-0.5) > 1e-12 {
		t.Fatal("sigmoid(0)")
	}
	if Tanh.apply(0) != 0 {
		t.Fatal("tanh(0)")
	}
	if Linear.apply(3.5) != 3.5 {
		t.Fatal("linear")
	}
	// Stability at extremes.
	if v := Sigmoid.apply(-800); v != 0 && !(v > 0 && v < 1e-300) {
		t.Fatalf("sigmoid(-800) = %v", v)
	}
	if v := Sigmoid.apply(800); v != 1 {
		t.Fatalf("sigmoid(800) = %v", v)
	}
}

func TestMSEKnown(t *testing.T) {
	var l MSE
	pred := Seq{{1, 2}, {3, 4}}
	target := Seq{{1, 0}, {3, 2}}
	v := l.Value(pred, target)
	if math.Abs(v-2) > 1e-12 { // (0+4+0+4)/4
		t.Fatalf("mse %v", v)
	}
	ev, grad := evalOne(l, pred, target)
	if ev != v {
		t.Fatalf("EvalBatchInto/Value disagree: %v vs %v", ev, v)
	}
	if grad[0][1] != 1 { // 2*(2-0)/4
		t.Fatalf("grad %v", grad)
	}
}

func TestMAEKnown(t *testing.T) {
	var l MAE
	pred := Seq{{3}}
	target := Seq{{1}}
	v, grad := evalOne(l, pred, target)
	if v != 2 || grad[0][0] != 1 {
		t.Fatalf("mae %v grad %v", v, grad)
	}
	v2, grad2 := evalOne(l, Seq{{0}}, Seq{{5}})
	if v2 != 5 || grad2[0][0] != -1 {
		t.Fatalf("mae %v grad %v", v2, grad2)
	}
}

func TestGradSetOps(t *testing.T) {
	m, err := Build(ForecasterSpec(4, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	gs := m.NewGradSet()
	gs.ByLayer[0][0].Data[0] = 3
	gs.ByLayer[0][0].Data[1] = 4
	if n := gs.GlobalNorm(); math.Abs(n-5) > 1e-12 {
		t.Fatalf("global norm %v", n)
	}
	gs.ClipGlobalNorm(1)
	if n := gs.GlobalNorm(); math.Abs(n-1) > 1e-12 {
		t.Fatalf("clipped norm %v", n)
	}
	gs2 := m.NewGradSet()
	gs2.Add(gs)
	gs2.Scale(2)
	if n := gs2.GlobalNorm(); math.Abs(n-2) > 1e-12 {
		t.Fatalf("scaled norm %v", n)
	}
	gs2.Zero()
	if gs2.GlobalNorm() != 0 {
		t.Fatal("zeroed grads not zero")
	}
}

func TestNumParams(t *testing.T) {
	// LSTM(1→50): wx 200×1 + wh 200×50 + b 200 = 10,400
	// Dense(50→10): 500 + 10 = 510; Dense(10→1): 10 + 1 = 11.
	m, err := Build(ForecasterSpec(50, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NumParams(); got != 10400+510+11 {
		t.Fatalf("NumParams %d", got)
	}
}

// TestSpecNumParams: the count a spec computes by arithmetic is the count
// the built model holds, and a count that does not fit an int is
// reported rather than wrapped.
func TestSpecNumParams(t *testing.T) {
	for _, spec := range []Spec{ForecasterSpec(50, 10), AutoencoderSpec(24, 50, 25, 0.2), DenseForecasterSpec(12, 8)} {
		m, err := Build(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if n, ok := spec.NumParams(); !ok || n != m.NumParams() {
			t.Fatalf("%s: spec counts %d (ok %v), model holds %d", spec.Name, n, ok, m.NumParams())
		}
	}
	for _, spec := range []Spec{
		AutoencoderSpec(24, 1<<40, 25, 0.2),
		{Layers: []LayerSpec{{Kind: "dense", In: -1, Out: 3}}},
	} {
		if n, ok := spec.NumParams(); ok {
			t.Fatalf("%+v: counted %d, want overflow/invalid", spec.Layers[0], n)
		}
	}
}

func TestDenseForecasterSpec(t *testing.T) {
	m, err := Build(DenseForecasterSpec(12, 8), 77)
	if err != nil {
		t.Fatal(err)
	}
	inputs, targets := sineDataset(250, 12, 78)
	flat := make([]Seq, len(inputs))
	for i, w := range inputs {
		flat[i] = FlattenWindow(w)
	}
	cfg := DefaultTrainConfig(40, 79)
	cfg.Optimizer = NewAdam(0.005)
	hist, err := Fit(m, flat, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hist.FinalTrainLoss() > 0.02 {
		t.Fatalf("dense forecaster failed to learn sine: %v", hist.FinalTrainLoss())
	}
	out := m.Predict(FlattenWindow(inputs[0]))
	if len(out) != 1 || len(out[0]) != 1 {
		t.Fatalf("dense forecaster output shape [%d][%d]", len(out), len(out[0]))
	}
}

func TestFlattenWindow(t *testing.T) {
	w := Seq{{1}, {2}, {3}}
	flat := FlattenWindow(w)
	if len(flat) != 1 || len(flat[0]) != 3 {
		t.Fatalf("flatten shape [%d][%d]", len(flat), len(flat[0]))
	}
	for i, v := range []float64{1, 2, 3} {
		if flat[0][i] != v {
			t.Fatalf("flatten content %v", flat)
		}
	}
}
