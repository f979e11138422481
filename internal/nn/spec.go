package nn

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/evfed/evfed/internal/rng"
)

// LayerSpec declares one layer of an architecture. Specs are plain data so
// they can cross the federation transport: the server and every client
// build positionally identical models (and therefore positionally aligned
// weight vectors) from the same spec and seed.
type LayerSpec struct {
	Kind      string  `json:"kind"` // "lstm", "dense", "dropout", "repeat"
	In        int     `json:"in"`
	Out       int     `json:"out"`
	ReturnSeq bool    `json:"returnSeq,omitempty"` // lstm
	Act       string  `json:"act,omitempty"`       // dense
	Rate      float64 `json:"rate,omitempty"`      // dropout
	Times     int     `json:"times,omitempty"`     // repeat
}

// Spec declares a full architecture.
type Spec struct {
	Name   string      `json:"name"`
	Layers []LayerSpec `json:"layers"`
}

// Build constructs a freshly initialized model from the spec. Two calls
// with equal spec and seed produce identical weights.
func Build(spec Spec, seed uint64) (*Model, error) {
	if len(spec.Layers) == 0 {
		return nil, ErrNoLayers
	}
	r := rng.New(seed)
	layers := make([]Layer, 0, len(spec.Layers))
	for i, ls := range spec.Layers {
		var (
			l   Layer
			err error
		)
		switch ls.Kind {
		case "lstm":
			l, err = NewLSTM(ls.In, ls.Out, ls.ReturnSeq, r.Split())
		case "dense":
			var act Activation
			act, err = ParseActivation(ls.Act)
			if err == nil {
				l, err = NewDense(ls.In, ls.Out, act, r.Split())
			}
		case "dropout":
			l, err = NewDropout(ls.In, ls.Rate)
		case "repeat":
			l, err = NewRepeatVector(ls.In, ls.Times)
		default:
			err = fmt.Errorf("%w: unknown layer kind %q", ErrBadConfig, ls.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("nn: build layer %d (%s): %w", i, ls.Kind, err)
		}
		layers = append(layers, l)
	}
	return NewModel(layers...)
}

// NumParams returns the number of scalar parameters a model built from s
// holds, computed from the layer shapes alone, so a caller can check a
// weight vector's length before Build allocates anything. ok is false
// when a dimension is negative or the count overflows an int; dimensions
// Build would reject are otherwise counted as given.
func (s Spec) NumParams() (n int, ok bool) {
	ok = true
	add := func(a, b int) { // n += a·b, checked
		if a < 0 || b < 0 {
			ok = false
			return
		}
		hi, lo := bits.Mul64(uint64(a), uint64(b))
		sum, carry := bits.Add64(lo, uint64(n), 0)
		if hi != 0 || carry != 0 || sum > math.MaxInt {
			ok = false
			return
		}
		n = int(sum)
	}
	for _, ls := range s.Layers {
		switch ls.Kind {
		case "lstm": // wx 4U×in, wh 4U×U, b 4U
			for g := 0; g < 4; g++ {
				add(ls.Out, ls.In)
				add(ls.Out, ls.Out)
				add(ls.Out, 1)
			}
		case "dense": // w out×in, b out
			add(ls.Out, ls.In)
			add(ls.Out, 1)
		}
	}
	if !ok {
		return 0, false
	}
	return n, true
}

// ForecasterSpec is the paper's demand-forecasting architecture:
// LSTM(units) → Dense(hidden, relu) → Dense(1). The paper uses units = 50
// and hidden = 10 over univariate input.
func ForecasterSpec(units, hidden int) Spec {
	return Spec{
		Name: "forecaster",
		Layers: []LayerSpec{
			{Kind: "lstm", In: 1, Out: units},
			{Kind: "dense", In: units, Out: hidden, Act: "relu"},
			{Kind: "dense", In: hidden, Out: 1},
		},
	}
}

// DenseForecasterSpec is a purely feedforward forecaster over the
// flattened look-back window — the "traditional neural network" baseline
// the paper's related work contrasts LSTM against. It consumes the same
// [T][1] input via a TakeLast-free trick: a first Dense applied per
// timestep cannot see across time, so this spec instead relies on the
// caller flattening windows to [1][T]. FlattenWindow does that.
func DenseForecasterSpec(seqLen, hidden int) Spec {
	return Spec{
		Name: "dense-forecaster",
		Layers: []LayerSpec{
			{Kind: "dense", In: seqLen, Out: hidden, Act: "relu"},
			{Kind: "dense", In: hidden, Out: hidden, Act: "relu"},
			{Kind: "dense", In: hidden, Out: 1},
		},
	}
}

// FlattenWindow converts a [T][1] look-back window into the [1][T] shape
// DenseForecasterSpec consumes.
func FlattenWindow(w Seq) Seq {
	flat := make([]float64, len(w))
	for t := range w {
		flat[t] = w[t][0]
	}
	return Seq{flat}
}

// AutoencoderSpec is the paper's anomaly-detection architecture: an LSTM
// autoencoder with a 50→25 encoder, 25→50 decoder, dropout 0.2, and a
// per-timestep linear reconstruction head. seqLen fixes the RepeatVector
// length (24 in the paper).
func AutoencoderSpec(seqLen, encUnits, bottleneck int, dropout float64) Spec {
	return Spec{
		Name: "lstm-autoencoder",
		Layers: []LayerSpec{
			{Kind: "lstm", In: 1, Out: encUnits, ReturnSeq: true},
			{Kind: "dropout", In: encUnits, Rate: dropout},
			{Kind: "lstm", In: encUnits, Out: bottleneck},
			{Kind: "repeat", In: bottleneck, Times: seqLen},
			{Kind: "lstm", In: bottleneck, Out: bottleneck, ReturnSeq: true},
			{Kind: "dropout", In: bottleneck, Rate: dropout},
			{Kind: "lstm", In: bottleneck, Out: encUnits, ReturnSeq: true},
			{Kind: "dense", In: encUnits, Out: 1},
		},
	}
}
