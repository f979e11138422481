package nn

import (
	"fmt"

	"github.com/evfed/evfed/internal/mat"
	"github.com/evfed/evfed/internal/rng"
)

// Dense is a fully connected layer applied independently to every timestep
// of its input sequence (Keras' Dense/TimeDistributed(Dense) semantics for
// sequence inputs): out_t = act(W · x_t + b).
type Dense struct {
	in, out int
	act     Activation
	w       *mat.Matrix // out × in
	b       *mat.Matrix // 1 × out
}

var _ Layer = (*Dense)(nil)

// NewDense constructs a Dense layer with Xavier-initialized weights.
func NewDense(in, out int, act Activation, r *rng.Source) (*Dense, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("%w: dense dims %dx%d", ErrBadConfig, in, out)
	}
	d := &Dense{
		in:  in,
		out: out,
		act: act,
		w:   mat.NewMatrix(out, in),
		b:   mat.NewMatrix(1, out),
	}
	d.w.XavierInit(r, in, out)
	return d, nil
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%d→%d,%s)", d.in, d.out, d.act) }

// OutDim implements Layer.
func (d *Dense) OutDim() int { return d.out }

// InDim returns the expected input feature dimension.
func (d *Dense) InDim() int { return d.in }

// Params implements Layer.
func (d *Dense) Params() []Param {
	return []Param{{Name: "w", Value: d.w}, {Name: "b", Value: d.b}}
}

type denseCache struct {
	ws  *Workspace
	x   *BatchSeq // input reference
	out *BatchSeq // post-activation output (for derivFromOutput)
}

// ForwardBatch implements Layer: one B×in → B×out GEMM per timestep.
func (d *Dense) ForwardBatch(x *BatchSeq, ctx *Context) (*BatchSeq, any) {
	checkBatch(x, d.in, d)
	ws := ctx.WS
	var cache *denseCache
	if ws != nil {
		cache = ws.denseCaches.get()
	} else {
		cache = &denseCache{}
	}
	out := wsBatchRaw(ws, x.T(), x.B, d.out) // every step overwritten by MulTBias
	bias := d.b.Row(0)
	for t := range out.Steps {
		s := out.Steps[t]
		s.MulTBias(x.Steps[t], d.w, bias)
		if d.act != Linear {
			for i := range s.Data {
				s.Data[i] = d.act.apply(s.Data[i])
			}
		}
	}
	cache.ws = ws
	cache.x = x
	cache.out = out
	return out, cache
}

// BackwardBatch implements Layer.
func (d *Dense) BackwardBatch(cache any, dOut *BatchSeq, grads []*mat.Matrix) *BatchSeq {
	c, ok := cache.(*denseCache)
	if !ok {
		panic("nn: dense backward got foreign cache")
	}
	gw, gb := grads[0], grads[1]
	T := dOut.T()
	B := dOut.B
	dx := wsBatchRaw(c.ws, T, B, d.in) // every step overwritten by Mul
	dz := wsMatRaw(c.ws, B, d.out)
	for t := 0; t < T; t++ {
		outT := c.out.Steps[t]
		dOutT := dOut.Steps[t]
		for i := range dz.Data {
			dz.Data[i] = dOutT.Data[i] * d.act.derivFromOutput(outT.Data[i])
		}
		gw.MulATAdd(dz, c.x.Steps[t])
		dz.ColSumsAdd(gb.Row(0))
		dx.Steps[t].Mul(dz, d.w)
	}
	return dx
}
