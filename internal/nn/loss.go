package nn

import (
	"fmt"
	"math"
)

// Loss is a differentiable objective over a predicted and target sequence
// of identical shape.
type Loss interface {
	// Name identifies the loss in history records.
	Name() string
	// Value returns the scalar loss of one sample (no gradient).
	Value(pred, target Seq) float64
	// EvalBatchInto writes each sample's per-sample-normalized gradient
	// with respect to pred into the matching rows of dst (every element
	// overwritten) and returns the SUM of the per-sample losses — callers
	// divide by their total sample count. Per-sample sums run in
	// (timestep, feature) order and samples accumulate in row order, so
	// the result is deterministic for a given batch composition.
	EvalBatchInto(dst, pred, target *BatchSeq) float64
}

// MSE is mean squared error averaged over all timesteps and features —
// both the training objective of the forecaster/autoencoder and the
// reconstruction-error score the anomaly detector thresholds.
type MSE struct{}

var _ Loss = MSE{}

// Name implements Loss.
func (MSE) Name() string { return "mse" }

// EvalBatchInto implements Loss.
func (MSE) EvalBatchInto(dst, pred, target *BatchSeq) float64 {
	n := batchSize(dst, pred, target)
	var total float64
	inv := 1 / float64(n)
	for b := 0; b < pred.B; b++ {
		var sum float64
		for t := range pred.Steps {
			pr, tr, dr := pred.Steps[t].Row(b), target.Steps[t].Row(b), dst.Steps[t].Row(b)
			for j := range pr {
				d := pr[j] - tr[j]
				sum += d * d
				dr[j] = 2 * d * inv
			}
		}
		total += sum * inv
	}
	return total
}

// Value implements Loss.
func (MSE) Value(pred, target Seq) float64 {
	n := seqSize(pred, target)
	var sum float64
	for t := range pred {
		for j := range pred[t] {
			d := pred[t][j] - target[t][j]
			sum += d * d
		}
	}
	return sum / float64(n)
}

// MAE is mean absolute error, provided for evaluation parity with the
// paper's reported metrics (subgradient at zero is 0).
type MAE struct{}

var _ Loss = MAE{}

// Name implements Loss.
func (MAE) Name() string { return "mae" }

// EvalBatchInto implements Loss.
func (MAE) EvalBatchInto(dst, pred, target *BatchSeq) float64 {
	n := batchSize(dst, pred, target)
	var total float64
	inv := 1 / float64(n)
	for b := 0; b < pred.B; b++ {
		var sum float64
		for t := range pred.Steps {
			pr, tr, dr := pred.Steps[t].Row(b), target.Steps[t].Row(b), dst.Steps[t].Row(b)
			for j := range pr {
				d := pr[j] - tr[j]
				sum += math.Abs(d)
				switch {
				case d > 0:
					dr[j] = inv
				case d < 0:
					dr[j] = -inv
				default:
					dr[j] = 0
				}
			}
		}
		total += sum * inv
	}
	return total
}

// Value implements Loss.
func (MAE) Value(pred, target Seq) float64 {
	n := seqSize(pred, target)
	var sum float64
	for t := range pred {
		for j := range pred[t] {
			sum += math.Abs(pred[t][j] - target[t][j])
		}
	}
	return sum / float64(n)
}

// Huber is the Huber loss with transition point Delta: quadratic for
// residuals below Delta, linear above. Training the forecaster with a
// Huber objective bounds the gradient contribution of residual
// (undetected) attack spikes — the "robust training" ablation.
type Huber struct {
	// Delta is the quadratic/linear transition (default 1 when zero).
	Delta float64
}

var _ Loss = Huber{}

// Name implements Loss.
func (h Huber) Name() string { return "huber" }

func (h Huber) delta() float64 {
	if h.Delta <= 0 {
		return 1
	}
	return h.Delta
}

// EvalBatchInto implements Loss.
func (h Huber) EvalBatchInto(dst, pred, target *BatchSeq) float64 {
	n := batchSize(dst, pred, target)
	delta := h.delta()
	var total float64
	inv := 1 / float64(n)
	for b := 0; b < pred.B; b++ {
		var sum float64
		for t := range pred.Steps {
			pr, tr, dr := pred.Steps[t].Row(b), target.Steps[t].Row(b), dst.Steps[t].Row(b)
			for j := range pr {
				d := pr[j] - tr[j]
				a := math.Abs(d)
				if a <= delta {
					sum += 0.5 * d * d
					dr[j] = d * inv
				} else {
					sum += delta * (a - 0.5*delta)
					if d > 0 {
						dr[j] = delta * inv
					} else {
						dr[j] = -delta * inv
					}
				}
			}
		}
		total += sum * inv
	}
	return total
}

// Value implements Loss.
func (h Huber) Value(pred, target Seq) float64 {
	n := seqSize(pred, target)
	delta := h.delta()
	var sum float64
	for t := range pred {
		for j := range pred[t] {
			d := pred[t][j] - target[t][j]
			a := math.Abs(d)
			if a <= delta {
				sum += 0.5 * d * d
			} else {
				sum += delta * (a - 0.5*delta)
			}
		}
	}
	return sum / float64(n)
}

// batchSize validates that dst, pred and target share one batch shape and
// returns the per-sample element count (timesteps × features).
func batchSize(dst, pred, target *BatchSeq) int {
	if pred.T() == 0 {
		panic("nn: batch loss over empty sequence")
	}
	for _, o := range []*BatchSeq{dst, target} {
		if o.B != pred.B || o.D != pred.D || o.T() != pred.T() {
			panic(fmt.Sprintf("nn: batch loss shape mismatch: %d×(%dx%d) vs %d×(%dx%d)",
				o.T(), o.B, o.D, pred.T(), pred.B, pred.D))
		}
	}
	return pred.T() * pred.D
}

// seqSize validates matching shapes and returns the element count.
func seqSize(pred, target Seq) int {
	if len(pred) != len(target) || len(pred) == 0 {
		panic(fmt.Sprintf("nn: loss shape mismatch: %d vs %d timesteps", len(pred), len(target)))
	}
	n := 0
	for t := range pred {
		if len(pred[t]) != len(target[t]) {
			panic(fmt.Sprintf("nn: loss feature mismatch at t=%d: %d vs %d",
				t, len(pred[t]), len(target[t])))
		}
		n += len(pred[t])
	}
	return n
}
