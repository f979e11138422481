package fed

import (
	"fmt"
	"math"

	"github.com/evfed/evfed/internal/rng"
)

// Privacy configures client-side update privatization. The paper's
// privacy argument is architectural (raw data never leaves a station),
// but shared weight updates can still leak training data through model
// inversion; the standard hardening is the Gaussian mechanism applied to
// the clipped update delta before it is sent:
//
//	delta  = w_local − w_global
//	delta ← delta · min(1, ClipNorm / ‖delta‖₂)
//	delta ← delta + N(0, NoiseStd²) per coordinate
//
// The coordinator then aggregates privatized deltas exactly as before.
// Calibrating (ε, δ) guarantees from (ClipNorm, NoiseStd, rounds) follows
// the usual moments-accountant analysis and is outside this package's
// scope; the mechanism itself is what the privacy/utility ablation
// exercises.
type Privacy struct {
	// ClipNorm bounds the L2 norm of the update delta (must be > 0 when
	// NoiseStd > 0, otherwise noise is unbounded relative to sensitivity).
	ClipNorm float64
	// NoiseStd is the per-coordinate Gaussian noise scale.
	NoiseStd float64
}

// Enabled reports whether any privatization is configured.
func (p Privacy) Enabled() bool { return p.ClipNorm > 0 || p.NoiseStd > 0 }

func (p Privacy) validate() error {
	if p.ClipNorm < 0 || p.NoiseStd < 0 {
		return fmt.Errorf("%w: privacy %+v", ErrBadConfig, p)
	}
	if p.NoiseStd > 0 && p.ClipNorm <= 0 {
		return fmt.Errorf("%w: noise without clipping has unbounded sensitivity", ErrBadConfig)
	}
	return nil
}

// privatize applies the mechanism to weights in place, given the global
// weights the local training started from.
func (p Privacy) privatize(weights, global []float64, r *rng.Source) error {
	if err := p.validate(); err != nil {
		return err
	}
	if !p.Enabled() {
		return nil
	}
	if len(weights) != len(global) {
		return fmt.Errorf("%w: weights %d vs global %d", ErrBadConfig, len(weights), len(global))
	}
	// The delta is recomputed in the second pass rather than stored: the
	// same subtraction gives the same bits, and no model-sized buffer.
	var norm float64
	for i := range weights {
		d := weights[i] - global[i]
		norm += d * d
	}
	norm = math.Sqrt(norm)
	scale := 1.0
	if p.ClipNorm > 0 && norm > p.ClipNorm {
		scale = p.ClipNorm / norm
	}
	for i := range weights {
		d := (weights[i] - global[i]) * scale
		if p.NoiseStd > 0 {
			d += r.Normal(0, p.NoiseStd)
		}
		weights[i] = global[i] + d
	}
	return nil
}
