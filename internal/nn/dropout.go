package nn

import (
	"fmt"

	"github.com/evfed/evfed/internal/mat"
)

// Dropout zeroes each input element with probability rate during training
// and rescales the survivors by 1/(1-rate) ("inverted dropout"), so
// inference is the identity. The paper's autoencoder uses rate 0.2.
type Dropout struct {
	dim  int
	rate float64
}

var _ Layer = (*Dropout)(nil)

// NewDropout constructs a Dropout layer over a dim-dimensional feature
// space with the given drop rate in [0, 1).
func NewDropout(dim int, rate float64) (*Dropout, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("%w: dropout dim %d", ErrBadConfig, dim)
	}
	if rate < 0 || rate >= 1 {
		return nil, fmt.Errorf("%w: dropout rate %v", ErrBadConfig, rate)
	}
	return &Dropout{dim: dim, rate: rate}, nil
}

// Name implements Layer.
func (d *Dropout) Name() string { return fmt.Sprintf("dropout(%g)", d.rate) }

// OutDim implements Layer.
func (d *Dropout) OutDim() int { return d.dim }

// Params implements Layer.
func (d *Dropout) Params() []Param { return nil }

type dropoutCache struct {
	ws   *Workspace
	mask []*mat.Matrix // [T] B×D; nil for inference or rate == 0
}

// ForwardBatch implements Layer. Sample b's mask is drawn entirely from
// ctx.BatchRNGs[b] in (timestep, feature) order, so a sample's mask
// depends only on its own sub-stream, not on which batch it happened to
// land in.
func (d *Dropout) ForwardBatch(x *BatchSeq, ctx *Context) (*BatchSeq, any) {
	checkBatch(x, d.dim, d)
	ws := ctx.WS
	var cache *dropoutCache
	if ws != nil {
		cache = ws.dropoutCaches.get()
	} else {
		cache = &dropoutCache{}
	}
	cache.ws = ws
	cache.mask = nil
	if !ctx.Train || d.rate == 0 {
		return x, cache
	}
	if len(ctx.BatchRNGs) < x.B {
		panic(fmt.Sprintf("nn: batched dropout needs %d per-sample RNGs, got %d",
			x.B, len(ctx.BatchRNGs)))
	}
	keep := 1 - d.rate
	scaleUp := 1 / keep
	T := x.T()
	mask := wsMatList(ws, T)
	outSteps := wsMatList(ws, T)
	for t := 0; t < T; t++ {
		mask[t] = wsMatRaw(ws, x.B, d.dim)
		outSteps[t] = wsMatRaw(ws, x.B, d.dim)
	}
	for b := 0; b < x.B; b++ {
		r := ctx.BatchRNGs[b]
		for t := 0; t < T; t++ {
			mr := mask[t].Row(b)
			or := outSteps[t].Row(b)
			xr := x.Steps[t].Row(b)
			for j := 0; j < d.dim; j++ {
				if r.Float64() < keep {
					mr[j] = scaleUp
					or[j] = xr[j] * scaleUp
				} else {
					mr[j] = 0
					or[j] = 0
				}
			}
		}
	}
	cache.mask = mask
	return wsBatchView(ws, x.B, d.dim, outSteps), cache
}

// BackwardBatch implements Layer.
func (d *Dropout) BackwardBatch(cache any, dOut *BatchSeq, _ []*mat.Matrix) *BatchSeq {
	c, ok := cache.(*dropoutCache)
	if !ok {
		panic("nn: dropout backward got foreign cache")
	}
	if c.mask == nil {
		return dOut
	}
	dx := wsBatchRaw(c.ws, dOut.T(), dOut.B, d.dim)
	for t := range dOut.Steps {
		mat.Hadamard(dx.Steps[t].Data, dOut.Steps[t].Data, c.mask[t].Data)
	}
	return dx
}
