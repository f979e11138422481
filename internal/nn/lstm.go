package nn

import (
	"fmt"

	"github.com/evfed/evfed/internal/mat"
	"github.com/evfed/evfed/internal/rng"
)

// LSTM is a standard Long Short-Term Memory layer with full
// backpropagation-through-time. Gate equations (per timestep t):
//
//	i_t = σ(Wxi x_t + Whi h_{t-1} + b_i)
//	f_t = σ(Wxf x_t + Whf h_{t-1} + b_f)
//	g_t = tanh(Wxg x_t + Whg h_{t-1} + b_g)
//	o_t = σ(Wxo x_t + Who h_{t-1} + b_o)
//	c_t = f_t ⊙ c_{t-1} + i_t ⊙ g_t
//	h_t = o_t ⊙ tanh(c_t)
//
// The four gates are stored stacked (order i, f, g, o) so the input and
// recurrent kernels are single matrices of shape [4U × in] and [4U × U].
// The forget-gate bias is initialized to 1 (Keras' unit_forget_bias), which
// materially speeds up convergence on daily-periodic load series.
//
// With ReturnSeq the layer outputs every hidden state ([T][U]); otherwise
// only the final hidden state ([1][U]), matching Keras' return_sequences.
type LSTM struct {
	in, units int
	returnSeq bool
	wx        *mat.Matrix // 4U × in
	wh        *mat.Matrix // 4U × U
	b         *mat.Matrix // 1 × 4U
}

var _ Layer = (*LSTM)(nil)

// NewLSTM constructs an LSTM layer. in is the input feature dimension,
// units the hidden size.
func NewLSTM(in, units int, returnSeq bool, r *rng.Source) (*LSTM, error) {
	if in <= 0 || units <= 0 {
		return nil, fmt.Errorf("%w: lstm dims in=%d units=%d", ErrBadConfig, in, units)
	}
	l := &LSTM{
		in:        in,
		units:     units,
		returnSeq: returnSeq,
		wx:        mat.NewMatrix(4*units, in),
		wh:        mat.NewMatrix(4*units, units),
		b:         mat.NewMatrix(1, 4*units),
	}
	l.wx.XavierInit(r, in, units)
	l.wh.OrthogonalishInit(r, units)
	// unit_forget_bias: forget-gate slice is [units, 2*units).
	for j := units; j < 2*units; j++ {
		l.b.Data[j] = 1
	}
	return l, nil
}

// Name implements Layer.
func (l *LSTM) Name() string {
	return fmt.Sprintf("lstm(%d→%d,seq=%v)", l.in, l.units, l.returnSeq)
}

// OutDim implements Layer.
func (l *LSTM) OutDim() int { return l.units }

// Units returns the hidden size.
func (l *LSTM) Units() int { return l.units }

// InDim returns the expected input feature dimension.
func (l *LSTM) InDim() int { return l.in }

// ReturnSeq reports whether the layer emits all hidden states.
func (l *LSTM) ReturnSeq() bool { return l.returnSeq }

// Params implements Layer.
func (l *LSTM) Params() []Param {
	return []Param{
		{Name: "wx", Value: l.wx},
		{Name: "wh", Value: l.wh},
		{Name: "b", Value: l.b},
	}
}

// lstmCache stores everything BPTT needs in timestep-major form: every
// block is a [T] list of B×width panels. With a workspace, the cache
// struct and all its blocks come from the arena and stay valid until the
// owner's next Reset.
type lstmCache struct {
	ws    *Workspace
	x     *BatchSeq
	gates []*mat.Matrix // [T] B×4U post-activation gate values (i, f, g, o)
	c     []*mat.Matrix // [T] B×U cell states
	ct    []*mat.Matrix // [T] B×U tanh(c_t)
	h     []*mat.Matrix // [T] B×U hidden states
}

// ForwardBatch implements Layer. The input projection x_t·Wxᵀ + b does
// not depend on the recurrence, so it is computed for every step before
// the recurrence starts, once per distinct step matrix: a step that
// aliases its predecessor (every step after the first behind a
// RepeatVector) copies the projection instead of recomputing it. Each
// step then adds h_{t-1}·Whᵀ (one B×U → B×4U GEMM), applies the fused
// gate activations and the elementwise cell update row-wise. The gate
// panels hold the same values in the same order of operations as a
// projection computed inside the loop.
func (l *LSTM) ForwardBatch(x *BatchSeq, ctx *Context) (*BatchSeq, any) {
	checkBatch(x, l.in, l)
	T := x.T()
	B := x.B
	U := l.units
	ws := ctx.WS
	var cache *lstmCache
	if ws != nil {
		cache = ws.lstmCaches.get()
	} else {
		cache = &lstmCache{}
	}
	cache.ws = ws
	cache.x = x
	cache.gates = wsMatList(ws, T)
	cache.c = wsMatList(ws, T)
	cache.ct = wsMatList(ws, T)
	cache.h = wsMatList(ws, T)
	hPrev := wsMatZero(ws, B, U)
	cPrev := wsMatZero(ws, B, U)
	bias := l.b.Row(0)
	for t := 0; t < T; t++ {
		z := wsMatRaw(ws, B, 4*U)
		cache.gates[t] = z
		if t > 0 && x.Steps[t] == x.Steps[t-1] {
			copy(z.Data, cache.gates[t-1].Data)
		} else {
			z.MulTBias(x.Steps[t], l.wx, bias)
		}
	}
	for t := 0; t < T; t++ {
		z := cache.gates[t]
		z.MulTAdd(hPrev, l.wh)
		z.GateActivationsRows(U)
		c := wsMatRaw(ws, B, U)
		ct := wsMatRaw(ws, B, U)
		h := wsMatRaw(ws, B, U)
		cache.c[t], cache.ct[t], cache.h[t] = c, ct, h
		for bi := 0; bi < B; bi++ {
			zr := z.Row(bi)
			cpr := cPrev.Row(bi)
			cr := c.Row(bi)
			for j := 0; j < U; j++ {
				cr[j] = zr[U+j]*cpr[j] + zr[j]*zr[2*U+j]
			}
		}
		for bi := 0; bi < B; bi++ {
			zr := z.Row(bi)
			ctr, hr := ct.Row(bi), h.Row(bi)
			// tanh(c) one row at a time: which elements take the vector
			// lanes then depends on U alone, not on the batch height.
			copy(ctr, c.Row(bi))
			mat.TanhPanel(ctr)
			for j := 0; j < U; j++ {
				hr[j] = zr[3*U+j] * ctr[j]
			}
		}
		hPrev, cPrev = h, c
	}
	if l.returnSeq {
		return wsBatchView(ws, B, U, cache.h), cache
	}
	steps := wsMatList(ws, 1)
	steps[0] = cache.h[T-1]
	return wsBatchView(ws, B, U, steps), cache
}

// BackwardBatch implements Layer. Parameter gradients are summed over the
// batch rows by the aᵀ·b GEMM, so one call accumulates what B batches of
// one would (up to floating-point association).
func (l *LSTM) BackwardBatch(cacheAny any, dOut *BatchSeq, grads []*mat.Matrix) *BatchSeq {
	cache, ok := cacheAny.(*lstmCache)
	if !ok {
		panic("nn: lstm backward got foreign cache")
	}
	T := cache.x.T()
	B := cache.x.B
	U := l.units
	ws := cache.ws
	gwx, gwh, gb := grads[0], grads[1], grads[2]

	dh := wsMatZero(ws, B, U)
	dc := wsMatZero(ws, B, U)
	dz := wsMatRaw(ws, B, 4*U)
	dx := wsBatchRaw(ws, T, B, l.in) // every step overwritten by Mul

	for t := T - 1; t >= 0; t-- {
		if l.returnSeq {
			mat.AddVec(dh.Data, dOut.Steps[t].Data)
		} else if t == T-1 {
			mat.AddVec(dh.Data, dOut.Steps[0].Data)
		}
		z := cache.gates[t]
		ct := cache.ct[t]
		var cPrev *mat.Matrix
		if t > 0 {
			cPrev = cache.c[t-1]
		}
		for bi := 0; bi < B; bi++ {
			zr := z.Row(bi)
			ctr := ct.Row(bi)
			dhr, dcr, dzr := dh.Row(bi), dc.Row(bi), dz.Row(bi)
			var cpr []float64
			if t > 0 {
				cpr = cPrev.Row(bi)
			}
			for j := 0; j < U; j++ {
				i, f, g, o := zr[j], zr[U+j], zr[2*U+j], zr[3*U+j]
				dO := dhr[j] * ctr[j]
				dcj := dcr[j] + dhr[j]*o*(1-ctr[j]*ctr[j])
				var cp float64
				if t > 0 {
					cp = cpr[j]
				}
				dF := dcj * cp
				dI := dcj * g
				dG := dcj * i
				dzr[j] = dI * i * (1 - i)
				dzr[U+j] = dF * f * (1 - f)
				dzr[2*U+j] = dG * (1 - g*g)
				dzr[3*U+j] = dO * o * (1 - o)
				dcr[j] = dcj * f
			}
		}
		gwx.MulATAdd(dz, cache.x.Steps[t])
		if t > 0 {
			gwh.MulATAdd(dz, cache.h[t-1])
		}
		dz.ColSumsAdd(gb.Row(0))
		dx.Steps[t].Mul(dz, l.wx)
		// Recurrent gradient into h_{t-1} replaces dh for the next
		// (earlier) step; the upstream dOut contribution is added there.
		dh.Mul(dz, l.wh)
	}
	return dx
}
