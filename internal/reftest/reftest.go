// Package reftest is the reference the production network is tested
// against: a deliberately naive forward pass built from an nn.Spec and the
// flat weight vector nn.Model.WeightsVector returns. Every layer is a
// straight-line float64 loop over fresh slices — left-to-right sums,
// math.Exp and math.Tanh, one sample at a time — with no workspace, SIMD,
// batching or internal/mat kernel, so it shares no code with what it
// checks. It is written to be read, not to be fast.
//
// Production agrees with it to rounding (~1e-12 relative), not bit for
// bit: the GEMM kernels sum in blocked order and may fuse multiply-adds.
package reftest

import (
	"fmt"
	"math"

	"github.com/evfed/evfed/internal/anomaly"
	"github.com/evfed/evfed/internal/nn"
)

// Forward runs x ([T][D], one sample) through the architecture spec with
// the given weights, in inference mode (dropout is the identity), and
// returns the output sequence. weights is laid out as WeightsVector lays
// it out: layer by layer, each layer's parameters in Params order, each
// parameter row-major.
func Forward(spec nn.Spec, weights []float64, x [][]float64) ([][]float64, error) {
	if len(spec.Layers) == 0 {
		return nil, fmt.Errorf("reftest: spec %q has no layers", spec.Name)
	}
	need := 0
	for _, ls := range spec.Layers {
		need += numParams(ls)
	}
	if len(weights) != need {
		return nil, fmt.Errorf("reftest: spec %q has %d weights, got %d", spec.Name, need, len(weights))
	}
	take := func(n int) []float64 {
		p := weights[:n]
		weights = weights[n:]
		return p
	}
	for i, ls := range spec.Layers {
		for t := range x {
			if len(x[t]) != ls.In {
				return nil, fmt.Errorf("reftest: layer %d (%s) wants %d features, got %d at t=%d",
					i, ls.Kind, ls.In, len(x[t]), t)
			}
		}
		switch ls.Kind {
		case "lstm":
			u := ls.Out
			x = lstm(x, ls.In, u, ls.ReturnSeq, take(4*u*ls.In), take(4*u*u), take(4*u))
		case "dense":
			act, err := activation(ls.Act)
			if err != nil {
				return nil, fmt.Errorf("reftest: layer %d: %w", i, err)
			}
			x = dense(x, ls.In, ls.Out, act, take(ls.Out*ls.In), take(ls.Out))
		case "dropout":
			// Inference: the identity.
		case "repeat":
			if len(x) != 1 {
				return nil, fmt.Errorf("reftest: layer %d (repeat) wants one timestep, got %d", i, len(x))
			}
			out := make([][]float64, ls.Times)
			for t := range out {
				out[t] = append([]float64(nil), x[0]...)
			}
			x = out
		default:
			return nil, fmt.Errorf("reftest: layer %d: unknown kind %q", i, ls.Kind)
		}
	}
	return x, nil
}

// numParams is the number of weights a layer owns.
func numParams(ls nn.LayerSpec) int {
	switch ls.Kind {
	case "lstm":
		return 4*ls.Out*ls.In + 4*ls.Out*ls.Out + 4*ls.Out
	case "dense":
		return ls.Out*ls.In + ls.Out
	}
	return 0
}

// lstm is one LSTM layer: wx is [4U×in], wh [4U×U] and b [4U], gates
// stacked in the order i, f, g, o.
//
//	i = σ(Wxi x + Whi h + bi), f = σ(…), g = tanh(…), o = σ(…)
//	c = f·c + i·g,  h = o·tanh(c)
func lstm(x [][]float64, in, units int, returnSeq bool, wx, wh, b []float64) [][]float64 {
	h := make([]float64, units)
	c := make([]float64, units)
	var out [][]float64
	for t := range x {
		z := make([]float64, 4*units)
		for r := range z {
			s := b[r]
			for k := 0; k < in; k++ {
				s += wx[r*in+k] * x[t][k]
			}
			for k := 0; k < units; k++ {
				s += wh[r*units+k] * h[k]
			}
			z[r] = s
		}
		hNew := make([]float64, units)
		cNew := make([]float64, units)
		for j := 0; j < units; j++ {
			ig := sigmoid(z[j])
			fg := sigmoid(z[units+j])
			gg := math.Tanh(z[2*units+j])
			og := sigmoid(z[3*units+j])
			cNew[j] = fg*c[j] + ig*gg
			hNew[j] = og * math.Tanh(cNew[j])
		}
		h, c = hNew, cNew
		if returnSeq {
			out = append(out, h)
		}
	}
	if !returnSeq {
		out = [][]float64{h}
	}
	return out
}

// dense applies out_t = act(W·x_t + b) to every timestep; w is [out×in].
func dense(x [][]float64, in, outDim int, act func(float64) float64, w, b []float64) [][]float64 {
	out := make([][]float64, len(x))
	for t := range x {
		out[t] = make([]float64, outDim)
		for r := 0; r < outDim; r++ {
			s := b[r]
			for k := 0; k < in; k++ {
				s += w[r*in+k] * x[t][k]
			}
			out[t][r] = act(s)
		}
	}
	return out
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

func activation(name string) (func(float64) float64, error) {
	switch name {
	case "", "linear":
		return func(v float64) float64 { return v }, nil
	case "relu":
		return func(v float64) float64 { return math.Max(v, 0) }, nil
	case "tanh":
		return math.Tanh, nil
	case "sigmoid":
		return sigmoid, nil
	}
	return nil, fmt.Errorf("unknown activation %q", name)
}

// ScoreLast is the streaming criterion for one window of a univariate
// autoencoder: the window is reconstructed, and the score is the squared
// error between its final value and that value's reconstruction, which
// is also returned.
func ScoreLast(spec nn.Spec, weights []float64, window []float64) (score, recon float64, err error) {
	x := make([][]float64, len(window))
	for t, v := range window {
		x[t] = []float64{v}
	}
	out, err := Forward(spec, weights, x)
	if err != nil {
		return 0, 0, err
	}
	if len(out) != len(window) {
		return 0, 0, fmt.Errorf("reftest: %d-step reconstruction of a %d-step window", len(out), len(window))
	}
	recon = out[len(out)-1][0]
	d := window[len(window)-1] - recon
	return d * d, recon, nil
}

// Decision is one replayed verdict.
type Decision struct {
	anomaly.StreamDecision
	// Mitigated is the reconstruction when the point was flagged and
	// mitigation is on, the raw value otherwise.
	Mitigated float64
}

// Replay judges values as one station's feed on a single goroutine: each
// point enters an anomaly.Ring of winLen, a full window is scored with
// ScoreLast, and a point is flagged when its score exceeds thr. With
// mitigate, a flagged point's reconstruction replaces it in the window,
// so the points after it are judged against the mitigated history — the
// serving tier's rule.
func Replay(spec nn.Spec, weights []float64, winLen int, thr float64, mitigate bool, values []float64) ([]Decision, error) {
	ring, err := anomaly.NewRing(winLen)
	if err != nil {
		return nil, err
	}
	out := make([]Decision, len(values))
	for i, v := range values {
		idx, win, ready := ring.Push(v)
		d := Decision{StreamDecision: anomaly.StreamDecision{Index: idx, Ready: ready}, Mitigated: v}
		if ready {
			score, recon, err := ScoreLast(spec, weights, win)
			if err != nil {
				return nil, err
			}
			d.Score, d.Flagged = score, score > thr
			if d.Flagged && mitigate {
				d.Mitigated = recon
				ring.AmendLast(recon)
			}
		}
		out[i] = d
	}
	return out, nil
}
