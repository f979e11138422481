package nn

import (
	"fmt"
	"math"

	"github.com/evfed/evfed/internal/mat"
)

// Optimizer updates model parameters from a gradient set. Implementations
// carry per-parameter state (momentum/variance) keyed by position, so one
// optimizer instance must be paired with exactly one model.
type Optimizer interface {
	// Name identifies the optimizer in history records.
	Name() string
	// Step applies one update. params and grads are aligned flat views of
	// the model parameters and their gradients.
	Step(params, grads []*mat.Matrix)
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	velocity [][]float64
}

var _ Optimizer = (*SGD)(nil)

// NewSGD constructs an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum}
}

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// Step implements Optimizer.
func (s *SGD) Step(params, grads []*mat.Matrix) {
	if s.velocity == nil {
		s.velocity = allocState(params)
	}
	for i, p := range params {
		g := grads[i].Data
		v := s.velocity[i]
		for j := range p.Data {
			v[j] = s.Momentum*v[j] - s.LR*g[j]
			p.Data[j] += v[j]
		}
	}
}

// RMSProp matches Keras' RMSprop (rho 0.9, eps 1e-7), included for the
// optimizer ablation.
type RMSProp struct {
	LR, Rho, Eps float64
	ms           [][]float64
}

var _ Optimizer = (*RMSProp)(nil)

// NewRMSProp constructs an RMSProp optimizer with Keras defaults.
func NewRMSProp(lr float64) *RMSProp {
	return &RMSProp{LR: lr, Rho: 0.9, Eps: 1e-7}
}

// Name implements Optimizer.
func (r *RMSProp) Name() string { return "rmsprop" }

// Step implements Optimizer.
func (r *RMSProp) Step(params, grads []*mat.Matrix) {
	if r.ms == nil {
		r.ms = allocState(params)
	}
	for i, p := range params {
		g := grads[i].Data
		m := r.ms[i]
		for j := range p.Data {
			m[j] = r.Rho*m[j] + (1-r.Rho)*g[j]*g[j]
			p.Data[j] -= r.LR * g[j] / (math.Sqrt(m[j]) + r.Eps)
		}
	}
}

// Adam is the paper's optimizer (Keras defaults: β1 0.9, β2 0.999,
// ε 1e-7) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  [][]float64
}

var _ Optimizer = (*Adam)(nil)

// NewAdam constructs an Adam optimizer with Keras default hyperparameters
// and the given learning rate (1e-3 in the paper).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-7}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// Reset returns a to the state NewAdam leaves it in — no steps taken, zero
// moments — keeping the moment buffers, so the next Step is bit-identical
// to a fresh optimizer's on the same model.
func (a *Adam) Reset() {
	a.t = 0
	for i := range a.m {
		mat.Fill(a.m[i], 0)
		mat.Fill(a.v[i], 0)
	}
}

// Step implements Optimizer.
func (a *Adam) Step(params, grads []*mat.Matrix) {
	if a.m == nil {
		a.m = allocState(params)
		a.v = allocState(params)
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range params {
		g := grads[i].Data
		m, v := a.m[i], a.v[i]
		for j := range p.Data {
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g[j]
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g[j]*g[j]
			mHat := m[j] / c1
			vHat := v[j] / c2
			p.Data[j] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
}

// NewOptimizer builds an optimizer by name ("adam", "sgd", "rmsprop").
func NewOptimizer(name string, lr float64) (Optimizer, error) {
	switch name {
	case "adam", "":
		return NewAdam(lr), nil
	case "sgd":
		return NewSGD(lr, 0.9), nil
	case "rmsprop":
		return NewRMSProp(lr), nil
	default:
		return nil, fmt.Errorf("%w: unknown optimizer %q", ErrBadConfig, name)
	}
}

func allocState(params []*mat.Matrix) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = make([]float64, len(p.Data))
	}
	return out
}
