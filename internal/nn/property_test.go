package nn

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/evfed/evfed/internal/rng"
)

// Recurrent-layer invariants checked property-style across random
// configurations: outputs stay bounded, inference is deterministic, and
// inference never mutates its input.

func TestLSTMOutputBoundedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		units := 1 + r.Intn(12)
		T := 1 + r.Intn(40)
		l, err := NewLSTM(1, units, true, r)
		if err != nil {
			return false
		}
		m, err := NewModel(l)
		if err != nil {
			return false
		}
		x := randSeq(r, T, 1)
		out := m.Predict(x)
		for t2 := range out {
			for _, v := range out[t2] {
				// h = o ⊙ tanh(c) with o ∈ (0,1) ⇒ |h| < 1.
				if math.IsNaN(v) || math.Abs(v) >= 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPredictDeterministicProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, err := Build(ForecasterSpec(1+r.Intn(10), 1+r.Intn(6)), seed)
		if err != nil {
			return false
		}
		x := randSeq(r, 2+r.Intn(20), 1)
		a := m.Predict(x)
		b := m.Predict(x)
		return a[0][0] == b[0][0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPredictDoesNotMutateInputProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, err := Build(AutoencoderSpec(6, 5, 3, 0.2), seed)
		if err != nil {
			return false
		}
		x := randSeq(r, 6, 1)
		orig := make([]float64, len(x))
		for i := range x {
			orig[i] = x[i][0]
		}
		m.Predict(x)
		for i := range x {
			if x[i][0] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Weight round trip is the identity for arbitrary architectures.
func TestWeightsRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var m *Model
		var err error
		if r.Bernoulli(0.5) {
			m, err = Build(ForecasterSpec(1+r.Intn(8), 1+r.Intn(5)), seed)
		} else {
			m, err = Build(AutoencoderSpec(2+r.Intn(6), 1+r.Intn(8), 1+r.Intn(5), 0.2), seed)
		}
		if err != nil {
			return false
		}
		w := m.WeightsVector()
		if err := m.SetWeightsVector(w); err != nil {
			return false
		}
		w2 := m.WeightsVector()
		for i := range w {
			if w[i] != w2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A single SGD step with learning rate 0 is the identity on weights.
func TestZeroLRFixedPointProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, err := Build(ForecasterSpec(1+r.Intn(6), 1+r.Intn(4)), seed)
		if err != nil {
			return false
		}
		before := m.WeightsVector()
		inputs := []Seq{randSeq(r, 8, 1)}
		targets := []Seq{{{r.Normal(0, 1)}}}
		cfg := TrainConfig{
			Epochs: 1, BatchSize: 1,
			Optimizer: NewSGD(0, 0), Loss: MSE{},
			Seed: seed,
		}
		if _, err := Fit(m, inputs, targets, cfg); err != nil {
			return false
		}
		after := m.WeightsVector()
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
