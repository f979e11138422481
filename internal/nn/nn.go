// Package nn is a small, dependency-free neural-network substrate built for
// the paper's two architectures: the federated LSTM forecaster
// (LSTM(50) → Dense(10, relu) → Dense(1)) and the LSTM autoencoder used for
// anomaly detection (LSTM(50) → LSTM(25) → RepeatVector → LSTM(25) →
// LSTM(50) → Dense(1)).
//
// Design notes:
//
//   - Data flows as sequences: a sample is a Seq with shape [T][D]
//     (T timesteps, D features). Non-recurrent layers apply per timestep.
//   - There is one execution path: every layer runs a batch of samples per
//     timestep (ForwardBatch/BackwardBatch over a BatchSeq), and a single
//     sample is a batch of one. Passes are re-entrant: intermediate state
//     lives in the cache a forward pass returns and gradients accumulate
//     into an externally supplied GradSet, so minibatch gradients can be
//     computed on parallel workers.
//   - Hot paths are allocation-free in steady state: a per-goroutine
//     Workspace (Context.WS) supplies every intermediate buffer from a
//     shape-keyed arena, so training and scoring throughput is bounded by
//     FLOPs, not the garbage collector.
//   - Tests hold the layers to internal/reftest, a naive float64 forward
//     pass, and their gradients to finite differences.
//   - Parameters are row-major matrices (biases are 1×n), so optimizers and
//     the federated-averaging code can treat a model as a flat []float64.
package nn

import (
	"errors"
	"math"

	"github.com/evfed/evfed/internal/mat"
	"github.com/evfed/evfed/internal/rng"
)

// Seq is a single sample: a sequence of T timestep vectors, each of equal
// feature dimension.
type Seq = [][]float64

// Errors returned by the package.
var (
	ErrShape     = errors.New("nn: shape mismatch")
	ErrNoLayers  = errors.New("nn: model has no layers")
	ErrBadConfig = errors.New("nn: invalid configuration")
)

// Param is a named, shaped learnable parameter.
type Param struct {
	Name  string
	Value *mat.Matrix
}

// Context carries per-call forward options.
type Context struct {
	// Train enables training-time behaviour (dropout masks).
	Train bool
	// WS, when non-nil, supplies every intermediate buffer (layer caches,
	// gradient batches) from a reusable arena instead of the heap. The
	// caller owns the workspace and must call WS.Reset between passes;
	// see the Workspace contract. Nil keeps the allocate-per-call
	// behaviour.
	WS *Workspace
	// BatchRNGs supplies one RNG sub-stream per batch row for stochastic
	// layers: sample b's dropout mask is drawn from BatchRNGs[b] alone, so
	// masks are per-sample deterministic regardless of how samples are
	// grouped into batches. Required (len >= batch size) when Train is
	// true and the model contains stochastic layers.
	BatchRNGs []*rng.Source
}

// Layer is one differentiable block over a timestep-major batch.
// Implementations must keep ForwardBatch and BackwardBatch free of
// internal mutable state: everything needed for the backward pass goes
// through the cache value ForwardBatch returns.
type Layer interface {
	// Name identifies the layer in diagnostics and serialized weights.
	Name() string
	// OutDim maps the input feature dimension to the output feature
	// dimension.
	OutDim() int
	// Params returns the learnable parameters (empty for stateless layers).
	Params() []Param
	// ForwardBatch computes the output batch for x and returns an opaque
	// cache consumed by BackwardBatch. x must not be mutated.
	ForwardBatch(x *BatchSeq, ctx *Context) (*BatchSeq, any)
	// BackwardBatch consumes the upstream gradient batch (same shape as
	// the ForwardBatch output), accumulates parameter gradients — summed
	// over the batch — into grads (aligned with Params()), and returns the
	// input gradient batch.
	BackwardBatch(cache any, dOut *BatchSeq, grads []*mat.Matrix) *BatchSeq
}

// Model is an ordered stack of layers.
type Model struct {
	layers []Layer
}

// NewModel builds a model from layers. At least one layer is required.
func NewModel(layers ...Layer) (*Model, error) {
	if len(layers) == 0 {
		return nil, ErrNoLayers
	}
	return &Model{layers: layers}, nil
}

// Layers returns the layer stack (shared slice; callers must not mutate).
func (m *Model) Layers() []Layer { return m.layers }

// OutDim returns the feature dimension of the model output.
func (m *Model) OutDim() int { return m.layers[len(m.layers)-1].OutDim() }

// Params returns all learnable parameters in layer order.
func (m *Model) Params() []Param {
	var out []Param
	for _, l := range m.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// NumParams returns the total number of scalar parameters.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.Value.Data)
	}
	return n
}

// Predict runs inference on one sample: ForwardBatch at B = 1 without a
// workspace, so every call allocates its intermediates. The batched
// kernels are row-invariant, so the result is bit-identical to the
// sample's row in any PredictBatchWS batch.
func (m *Model) Predict(x Seq) Seq {
	out, _ := m.ForwardBatch(packSeqBatch(nil, []Seq{x}, nil), &Context{})
	return sampleView(nil, out, 0)
}

// GradSet holds gradient accumulators shaped identically to the model's
// parameters, grouped per layer.
type GradSet struct {
	ByLayer [][]*mat.Matrix
}

// NewGradSet allocates zeroed gradient buffers matching m's parameters.
func (m *Model) NewGradSet() *GradSet {
	gs := &GradSet{ByLayer: make([][]*mat.Matrix, len(m.layers))}
	for i, l := range m.layers {
		ps := l.Params()
		gs.ByLayer[i] = make([]*mat.Matrix, len(ps))
		for j, p := range ps {
			gs.ByLayer[i][j] = mat.NewMatrix(p.Value.Rows, p.Value.Cols)
		}
	}
	return gs
}

// Zero resets every gradient buffer.
func (gs *GradSet) Zero() {
	for _, layer := range gs.ByLayer {
		for _, g := range layer {
			g.Zero()
		}
	}
}

// Add accumulates o into gs.
func (gs *GradSet) Add(o *GradSet) {
	for i := range gs.ByLayer {
		for j := range gs.ByLayer[i] {
			mat.AddVec(gs.ByLayer[i][j].Data, o.ByLayer[i][j].Data)
		}
	}
}

// Scale multiplies every gradient by alpha (used to average over a batch).
func (gs *GradSet) Scale(alpha float64) {
	for _, layer := range gs.ByLayer {
		for _, g := range layer {
			mat.Scale(alpha, g.Data)
		}
	}
}

// Flat returns the gradient matrices flattened in parameter order.
func (gs *GradSet) Flat() []*mat.Matrix {
	var out []*mat.Matrix
	for _, layer := range gs.ByLayer {
		out = append(out, layer...)
	}
	return out
}

// GlobalNorm returns the Euclidean norm over all gradient entries.
func (gs *GradSet) GlobalNorm() float64 {
	var sum float64
	for _, layer := range gs.ByLayer {
		for _, g := range layer {
			for _, v := range g.Data {
				sum += v * v
			}
		}
	}
	return math.Sqrt(sum)
}

// ClipGlobalNorm rescales all gradients so their global norm does not
// exceed limit. No-op when limit <= 0.
func (gs *GradSet) ClipGlobalNorm(limit float64) {
	if limit <= 0 {
		return
	}
	n := gs.GlobalNorm()
	if n <= limit || n == 0 {
		return
	}
	gs.Scale(limit / n)
}
