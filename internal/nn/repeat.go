package nn

import (
	"fmt"

	"github.com/evfed/evfed/internal/mat"
)

// RepeatVector replicates a single-timestep input [1][D] into a [T][D]
// sequence, the Keras bridge between an encoder's final state and a
// sequence decoder in the LSTM autoencoder.
type RepeatVector struct {
	dim, times int
}

var _ Layer = (*RepeatVector)(nil)

// NewRepeatVector constructs a RepeatVector emitting times copies of its
// dim-dimensional input vector.
func NewRepeatVector(dim, times int) (*RepeatVector, error) {
	if dim <= 0 || times <= 0 {
		return nil, fmt.Errorf("%w: repeatvector dim=%d times=%d", ErrBadConfig, dim, times)
	}
	return &RepeatVector{dim: dim, times: times}, nil
}

// Name implements Layer.
func (r *RepeatVector) Name() string { return fmt.Sprintf("repeat(%d)", r.times) }

// OutDim implements Layer.
func (r *RepeatVector) OutDim() int { return r.dim }

// Params implements Layer.
func (r *RepeatVector) Params() []Param { return nil }

// ForwardBatch implements Layer. The input must be a single timestep; all
// times output steps alias its step matrix (layers never mutate their
// inputs, so sharing is safe — see the BatchSeq aliasing contract). The
// cache is the pass's workspace (nil without one), which BackwardBatch
// draws its gradient buffer from.
func (r *RepeatVector) ForwardBatch(x *BatchSeq, ctx *Context) (*BatchSeq, any) {
	if x.T() != 1 {
		panic(fmt.Sprintf("nn: repeatvector expects a single timestep, got %d", x.T()))
	}
	checkBatch(x, r.dim, r)
	ws := ctx.WS
	steps := wsMatList(ws, r.times)
	for t := range steps {
		steps[t] = x.Steps[0]
	}
	var cache any
	if ws != nil {
		cache = ws
	}
	return wsBatchView(ws, x.B, r.dim, steps), cache
}

// BackwardBatch implements Layer: gradients of all copies sum into the
// single input step.
func (r *RepeatVector) BackwardBatch(cacheAny any, dOut *BatchSeq, _ []*mat.Matrix) *BatchSeq {
	ws, _ := cacheAny.(*Workspace)
	dx := wsBatchRaw(ws, 1, dOut.B, r.dim)
	dx.Steps[0].Zero()
	for t := range dOut.Steps {
		mat.AddVec(dx.Steps[0].Data, dOut.Steps[t].Data)
	}
	return dx
}
