package nn

import (
	"errors"
	"math"
	"testing"

	"github.com/evfed/evfed/internal/rng"
)

// sineDataset builds windows from a noisy sine wave: the canonical "can it
// learn a periodic signal" smoke test for the forecaster.
func sineDataset(n, seqLen int, seed uint64) (inputs, targets []Seq) {
	r := rng.New(seed)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 0.5 + 0.4*math.Sin(2*math.Pi*float64(i)/24) + r.Normal(0, 0.01)
	}
	for t := seqLen; t < n; t++ {
		in := make(Seq, seqLen)
		for k := 0; k < seqLen; k++ {
			in[k] = []float64{vals[t-seqLen+k]}
		}
		inputs = append(inputs, in)
		targets = append(targets, Seq{{vals[t]}})
	}
	return inputs, targets
}

func TestFitLearnsSine(t *testing.T) {
	m, err := Build(ForecasterSpec(12, 6), 1)
	if err != nil {
		t.Fatal(err)
	}
	inputs, targets := sineDataset(300, 12, 2)
	cfg := DefaultTrainConfig(15, 3)
	hist, err := Fit(m, inputs, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, last := hist.TrainLoss[0], hist.FinalTrainLoss()
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	if last > 0.01 {
		t.Fatalf("final loss %v too high for a clean sine", last)
	}
}

func TestFitDeterministicForFixedConfig(t *testing.T) {
	inputs, targets := sineDataset(120, 8, 4)
	run := func(workers int) []float64 {
		m, err := Build(ForecasterSpec(6, 4), 11)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultTrainConfig(3, 5)
		cfg.Workers = workers
		if _, err := Fit(m, inputs, targets, cfg); err != nil {
			t.Fatal(err)
		}
		return m.WeightsVector()
	}
	// Bit-for-bit reproducible for a fixed (Seed, Workers) pair — the
	// contract the experiment harness relies on. (Across different worker
	// counts only statistical equivalence holds: per-sample gradients are
	// summed in a different order, and float addition is not associative.)
	wa := run(4)
	wb := run(4)
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("weights not reproducible at %d: %v vs %v", i, wa[i], wb[i])
		}
	}
	w1 := run(1)
	for i := range wa {
		if math.Abs(w1[i]-wa[i]) > 0.05 {
			t.Fatalf("weights statistically diverged across worker counts at %d: %v vs %v", i, w1[i], wa[i])
		}
	}
}

func TestFitEarlyStopping(t *testing.T) {
	m, err := Build(ForecasterSpec(4, 3), 21)
	if err != nil {
		t.Fatal(err)
	}
	// Pure-noise targets: validation loss cannot systematically improve, so
	// patience must trigger well before the epoch budget.
	r := rng.New(22)
	var inputs, targets []Seq
	for i := 0; i < 150; i++ {
		inputs = append(inputs, randSeq(r, 6, 1))
		targets = append(targets, Seq{{r.Normal(0, 1)}})
	}
	cfg := DefaultTrainConfig(200, 23)
	cfg.ValFrac = 0.25
	cfg.Patience = 3
	hist, err := Fit(m, inputs, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hist.StoppedEarly {
		t.Fatalf("expected early stop; ran %d epochs", len(hist.TrainLoss))
	}
	if len(hist.ValLoss) == 0 {
		t.Fatal("no validation losses recorded")
	}
	if len(hist.TrainLoss) >= 200 {
		t.Fatal("patience did not shorten training")
	}
}

func TestFitRestoresBestWeights(t *testing.T) {
	m, err := Build(ForecasterSpec(4, 3), 31)
	if err != nil {
		t.Fatal(err)
	}
	inputs, targets := sineDataset(100, 6, 32)
	cfg := DefaultTrainConfig(5, 33)
	cfg.ValFrac = 0.2
	hist, err := Fit(m, inputs, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The restored weights must reproduce the best recorded val loss.
	nVal := int(float64(len(inputs)) * cfg.ValFrac)
	var val float64
	for i := len(inputs) - nVal; i < len(inputs); i++ {
		val += cfg.Loss.Value(m.Predict(inputs[i]), targets[i])
	}
	val /= float64(nVal)
	best := math.Inf(1)
	for _, v := range hist.ValLoss {
		if v < best {
			best = v
		}
	}
	if math.Abs(val-best) > 1e-9 {
		t.Fatalf("restored val loss %v, best recorded %v", val, best)
	}
}

func TestFitConfigValidation(t *testing.T) {
	m, err := Build(ForecasterSpec(4, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	inputs, targets := sineDataset(50, 6, 1)

	if _, err := Fit(m, nil, nil, DefaultTrainConfig(1, 1)); !errors.Is(err, ErrNoData) {
		t.Fatalf("want ErrNoData, got %v", err)
	}
	if _, err := Fit(m, inputs, targets[:len(targets)-1], DefaultTrainConfig(1, 1)); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	bad := DefaultTrainConfig(0, 1)
	if _, err := Fit(m, inputs, targets, bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
	bad2 := DefaultTrainConfig(1, 1)
	bad2.Optimizer = nil
	if _, err := Fit(m, inputs, targets, bad2); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
	bad3 := DefaultTrainConfig(1, 1)
	bad3.ValFrac = 1.5
	if _, err := Fit(m, inputs, targets, bad3); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
}

func TestOptimizersReduceLoss(t *testing.T) {
	inputs, targets := sineDataset(200, 8, 51)
	for _, name := range []string{"adam", "sgd", "rmsprop"} {
		opt, err := NewOptimizer(name, 0.005)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Build(ForecasterSpec(6, 4), 52)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultTrainConfig(8, 53)
		cfg.Optimizer = opt
		hist, err := Fit(m, inputs, targets, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if hist.FinalTrainLoss() >= hist.TrainLoss[0] {
			t.Fatalf("%s did not reduce loss: %v -> %v", name, hist.TrainLoss[0], hist.FinalTrainLoss())
		}
	}
	if _, err := NewOptimizer("adagrad", 0.1); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
}

func TestAutoencoderLearnsReconstruction(t *testing.T) {
	// A tiny autoencoder must learn to reconstruct a repeating pattern.
	m, err := Build(AutoencoderSpec(8, 8, 4, 0.1), 61)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(62)
	var inputs []Seq
	for i := 0; i < 150; i++ {
		phase := r.Float64() * 2 * math.Pi
		seq := make(Seq, 8)
		for k := range seq {
			seq[k] = []float64{0.5 + 0.3*math.Sin(2*math.Pi*float64(k)/8+phase)}
		}
		inputs = append(inputs, seq)
	}
	cfg := DefaultTrainConfig(20, 63)
	hist, err := Fit(m, inputs, inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hist.FinalTrainLoss() > hist.TrainLoss[0]*0.5 {
		t.Fatalf("autoencoder barely learned: %v -> %v", hist.TrainLoss[0], hist.FinalTrainLoss())
	}
}

func BenchmarkForwardForecaster(b *testing.B) {
	m, err := Build(ForecasterSpec(50, 10), 1)
	if err != nil {
		b.Fatal(err)
	}
	x := randSeq(rng.New(1), 24, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(x)
	}
}

func BenchmarkBackwardForecaster(b *testing.B) {
	m, err := Build(ForecasterSpec(50, 10), 1)
	if err != nil {
		b.Fatal(err)
	}
	xs := []Seq{randSeq(rng.New(1), 24, 1)}
	ys := []Seq{{{0.5}}}
	gs := m.NewGradSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gs.Zero()
		gradBatch(m, xs, ys, MSE{}, gs)
	}
}
