package fed

import (
	"fmt"

	"github.com/evfed/evfed/internal/mat"
)

// PartialKind identifies the form of a partial aggregate an edge
// aggregator folds for its upstream node. The kind is dictated by the
// root's aggregation rule and travels in every Train request (stations
// ignore it), so the whole tree always folds under one rule.
type PartialKind uint8

const (
	// PartialWeighted is a sample-weighted partial sum (FedAvg): the edge
	// ships its compensated accumulator (hi + compensation), so
	// the root's merged fold matches a flat single-coordinator fold at
	// full float64 precision.
	PartialWeighted PartialKind = iota
	// PartialUniform is the equally-weighted variant (uniform mean).
	PartialUniform
	// PartialHeld forwards every downstream update vector unfolded.
	// Order statistics (median, trimmed mean) are not decomposable into
	// per-edge folds, so the edge acts as a gather relay and the root
	// reduces the full column set exactly as a flat coordinator would.
	PartialHeld
)

func (k PartialKind) validate() error {
	if k > PartialHeld {
		return fmt.Errorf("%w: partial kind %d", ErrBadConfig, uint8(k))
	}
	return nil
}

// partialKindFor maps an aggregation rule to the partial form edges must
// produce for it. Unknown (external) aggregators map to PartialHeld; the
// root rejects them for hierarchical rounds anyway (the buffered fallback
// cannot merge partials), so the value is never trusted blindly.
func partialKindFor(agg Aggregator) PartialKind {
	switch agg.(type) {
	case MeanAggregator, nil:
		return PartialWeighted
	case UniformAggregator:
		return PartialUniform
	default:
		return PartialHeld
	}
}

// Partial is one aggregation node's contribution to its parent's round: a
// partial aggregate over the node's downstream participants plus the
// bookkeeping the parent needs for weighting, diagnostics and byte
// accounting. It is the in-memory form of the wire's TrainPartial frame.
type Partial struct {
	// NodeID identifies the edge that produced the partial.
	NodeID string
	// Kind selects which payload fields below are meaningful.
	Kind PartialKind
	// Dim is the weight-vector dimension.
	Dim int

	// WeightTotal is the summed FedAvg weight of the folded updates
	// (sample counts for PartialWeighted, participant count for
	// PartialUniform). Integer-valued, so it is exact in float64 and the
	// root's total matches a flat fold bit-for-bit.
	WeightTotal float64
	// Count is the number of folded (or held) downstream updates.
	Count int
	// AccHi and AccLo are the compensated partial sum: high word
	// and accumulated compensation. Shipped as raw float64 so the root
	// merge is lossless regardless of the tree's wire codec.
	AccHi, AccLo []float64
	// Held carries the unfolded downstream update vectors (PartialHeld),
	// in the edge's client order.
	Held [][]float64

	// LeafParticipants and LeafDropped count the stations underneath this
	// node that contributed to / dropped out of the round.
	LeafParticipants int
	LeafDropped      int
	// SampleSum and LossSum carry the participant sample total and the
	// sample-weighted loss sum, so the root's MeanLoss spans the whole
	// tree.
	SampleSum int
	LossSum   float64
	// ClientSeconds sums downstream client-reported local training time.
	ClientSeconds float64
	// BytesDown and BytesUp are the node's own downstream round traffic
	// (modeled exact frame sizes, like RoundStat's), so multi-tier byte
	// accounting is visible at the root.
	BytesDown, BytesUp uint64
}

// PartialTrainer is implemented by client handles that are themselves
// aggregation nodes: instead of one local update, Train-ing them yields a
// partial aggregate over their own downstream round. The coordinator's
// round engine dispatches on this interface, so edges and stations mix
// freely under one parent.
type PartialTrainer interface {
	// TrainPartial broadcasts the global weights to the node's downstream
	// clients, runs one round under the node's own deadline and
	// concurrency bounds, and returns the folded partial.
	TrainPartial(global []float64, cfg LocalTrainConfig) (Partial, error)
}

// partialStream is the optional streaming-aggregator extension for
// hierarchical rounds: merging downstream partials into the round fold
// and exporting the fold as a partial for the node's own parent. The
// built-in aggregators implement it; the buffered fallback for external
// aggregators does not (a one-shot Aggregate cannot merge pre-folded
// sums), so hierarchical rounds reject custom rules with ErrBadConfig.
type partialStream interface {
	StreamAggregator
	// AddPartial folds one downstream node's partial into the round.
	AddPartial(p *Partial) error
	// ExportPartial drains the round into p (reusing p's buffers) instead
	// of finishing it into a weight vector.
	ExportPartial(p *Partial) error
}

func (s *meanStream) kind() PartialKind {
	if s.weighted {
		return PartialWeighted
	}
	return PartialUniform
}

// AddPartial merges a folded partial: flush the pending updates, then
// compensated-add the partial's high word into the accumulator and fold
// its compensation straight into ours. Exact weight totals
// (integer-valued float64) keep the divisor identical to a flat fold's.
func (s *meanStream) AddPartial(p *Partial) error {
	if p.Kind != s.kind() {
		return fmt.Errorf("%w: node %s sent partial kind %d, aggregator %s wants %d",
			ErrBadConfig, p.NodeID, p.Kind, s.name, s.kind())
	}
	if p.Dim != s.dim || len(p.AccHi) != s.dim || len(p.AccLo) != s.dim {
		return fmt.Errorf("%w: node %s partial dim %d != %d",
			ErrBadConfig, p.NodeID, p.Dim, s.dim)
	}
	if p.Count <= 0 || p.WeightTotal <= 0 {
		return fmt.Errorf("%w: node %s partial folds %d clients (weight %v)",
			ErrBadConfig, p.NodeID, p.Count, p.WeightTotal)
	}
	s.flush()
	mat.AxpyComp(1, s.acc, s.comp, p.AccHi)
	mat.AddVec(s.comp, p.AccLo)
	s.total += p.WeightTotal
	s.count += p.Count
	return nil
}

// ExportPartial implements partialStream for the mean family.
func (s *meanStream) ExportPartial(p *Partial) error {
	s.flush()
	if s.count == 0 {
		return ErrNoClients
	}
	p.Kind = s.kind()
	p.Dim = s.dim
	p.WeightTotal = s.total
	p.Count = s.count
	p.AccHi = append(p.AccHi[:0], s.acc...)
	p.AccLo = append(p.AccLo[:0], s.comp...)
	p.Held = p.Held[:0]
	return nil
}

// AddPartial merges a held partial: the relayed update vectors join the
// round's column set in arrival order, so a contiguous station→edge
// assignment reproduces the flat coordinator's fold order exactly.
func (s *rankStream) AddPartial(p *Partial) error {
	if p.Kind != PartialHeld {
		return fmt.Errorf("%w: node %s sent partial kind %d, rank aggregator %s wants held vectors",
			ErrBadConfig, p.NodeID, p.Kind, s.name)
	}
	if len(p.Held) == 0 {
		return fmt.Errorf("%w: node %s held partial is empty", ErrBadConfig, p.NodeID)
	}
	for _, w := range p.Held {
		if len(w) != s.dim {
			return fmt.Errorf("%w: node %s held vector dim %d != %d",
				ErrBadConfig, p.NodeID, len(w), s.dim)
		}
		s.held = append(s.held, w)
	}
	return nil
}

// ExportPartial implements partialStream for the rank family: the edge
// cannot pre-fold an order statistic, so it exports the held vectors.
func (s *rankStream) ExportPartial(p *Partial) error {
	defer func() {
		for i := range s.held {
			s.held[i] = nil
		}
		s.held = s.held[:0]
	}()
	if len(s.held) == 0 {
		return ErrNoClients
	}
	p.Kind = PartialHeld
	p.Dim = s.dim
	p.WeightTotal = float64(len(s.held))
	p.Count = len(s.held)
	p.AccHi = p.AccHi[:0]
	p.AccLo = p.AccLo[:0]
	p.Held = append(p.Held[:0], s.held...)
	return nil
}
