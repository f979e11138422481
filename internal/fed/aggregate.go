package fed

import (
	"fmt"

	"github.com/evfed/evfed/internal/mat"
)

// Aggregator combines client updates into a new global weight vector.
// FedAvg (sample-weighted mean) is the paper's rule; the robust
// alternatives extend the paper's threat model from data-plane attacks
// (DDoS on charging streams) to model-plane attacks, where a compromised
// station submits poisoned weight updates to corrupt the global model.
//
// The coordinator does not call Aggregate directly: it wraps the
// configured aggregator in a StreamAggregator (NewStream) so updates are
// folded into reusable scratch as responses arrive instead of being held
// as per-client full copies until a round barrier. Aggregate remains the
// one-shot API for tests and external callers.
type Aggregator interface {
	// Name identifies the aggregator in round statistics.
	Name() string
	// Aggregate combines the updates (all validated to equal dimension
	// and positive sample counts by the coordinator).
	Aggregate(updates []Update) ([]float64, error)
}

// StreamAggregator accumulates one round's updates incrementally. Begin
// resets the (retained, reused) scratch for a round, Add validates one
// update and folds it in, and Finish writes the aggregate into dst
// (length dim) and drops any retained references. Every rule may keep a
// reference to an added update's Weights, so the caller must not modify
// the slice until the round ends: mean-family rules hold up to three
// pending vectors and fold them four at a time (mat.AxpyComp4), flushing
// the rest at Finish, ExportPartial or AddPartial; rank-based rules hold
// every vector until Finish. After a warm round, Begin/Add/Finish
// perform no allocation.
//
// Updates must be added in a deterministic order (the coordinator uses
// client-index order) for bit-reproducible aggregation.
type StreamAggregator interface {
	Name() string
	Begin(dim, clients int)
	Add(u *Update) error
	Finish(dst []float64) ([]float64, error)
}

// NewStream wraps agg in its streaming form. The built-in aggregators get
// specialized zero-allocation implementations; unknown aggregators fall
// back to buffering the round and delegating to Aggregate.
func NewStream(agg Aggregator) StreamAggregator {
	switch a := agg.(type) {
	case MeanAggregator:
		return &meanStream{name: a.Name(), weighted: true}
	case UniformAggregator:
		return &meanStream{name: a.Name()}
	case MedianAggregator:
		return &rankStream{name: a.Name(), trim: -1}
	case TrimmedMeanAggregator:
		if a.TrimPerSide < 0 {
			// A negative trim must surface as ErrBadConfig, not collide
			// with rankStream's median sentinel; the buffered path
			// delegates to Aggregate, which rejects it.
			return &bufferedStream{agg: a}
		}
		return &rankStream{name: a.Name(), trim: a.TrimPerSide}
	default:
		return &bufferedStream{agg: agg}
	}
}

func checkUpdateDim(u *Update, dim int) error {
	if len(u.Weights) != dim {
		return fmt.Errorf("%w: client %s weight dim %d != %d",
			ErrBadConfig, u.ClientID, len(u.Weights), dim)
	}
	return nil
}

// meanStream streams FedAvg (weighted) or the uniform mean: updates fold
// into one reusable accumulator via compensated axpy, four at a time, so
// no per-client copy is made and at most three vectors wait to be
// folded. The compensation (acc + comp carries the running sum to ~2×
// working precision) is what makes hierarchical rounds exact: an edge
// ships (acc, comp) losslessly and the root's merged fold reproduces the
// flat single-coordinator fold. A four-update pass has the bits of four
// single folds, so when the stream flushes does not change the result.
type meanStream struct {
	name     string
	weighted bool
	dim      int
	acc      []float64
	comp     []float64
	total    float64
	count    int
	// pending holds the validated updates not yet folded, in Add order,
	// with their FedAvg weights; npending ≤ 3 between calls.
	pending  [4][]float64
	pendingW [4]float64
	npending int
}

func (s *meanStream) Name() string { return s.name }

func (s *meanStream) Begin(dim, clients int) {
	if cap(s.acc) < dim {
		s.acc = make([]float64, dim)
		s.comp = make([]float64, dim)
	}
	s.acc = s.acc[:dim]
	s.comp = s.comp[:dim]
	mat.Fill(s.acc, 0)
	mat.Fill(s.comp, 0)
	s.dim = dim
	s.total = 0
	s.count = 0
	s.dropPending()
}

func (s *meanStream) Add(u *Update) error {
	if err := checkUpdateDim(u, s.dim); err != nil {
		return err
	}
	w := 1.0
	if s.weighted {
		if u.NumSamples <= 0 {
			return fmt.Errorf("%w: client %s reports %d samples",
				ErrBadConfig, u.ClientID, u.NumSamples)
		}
		w = float64(u.NumSamples)
	}
	s.pending[s.npending] = u.Weights
	s.pendingW[s.npending] = w
	s.npending++
	if s.npending == len(s.pending) {
		mat.AxpyComp4(s.pendingW, s.acc, s.comp, s.pending)
		s.dropPending()
	}
	s.total += w
	s.count++
	return nil
}

// flush folds the pending updates one at a time, in Add order.
func (s *meanStream) flush() {
	for i := 0; i < s.npending; i++ {
		mat.AxpyComp(s.pendingW[i], s.acc, s.comp, s.pending[i])
	}
	s.dropPending()
}

// dropPending forgets the pending updates, releasing their vectors.
func (s *meanStream) dropPending() {
	s.pending = [4][]float64{}
	s.npending = 0
}

func (s *meanStream) Finish(dst []float64) ([]float64, error) {
	s.flush()
	if s.count == 0 {
		return nil, ErrNoClients
	}
	if cap(dst) < s.dim {
		dst = make([]float64, s.dim)
	}
	dst = dst[:s.dim]
	inv := 1 / s.total
	for i, v := range s.acc {
		dst[i] = (v + s.comp[i]) * inv
	}
	return dst, nil
}

// rankStream streams the coordinate-wise median (trim < 0) or trimmed
// mean (trim ≥ 0). Order statistics need every client's value per
// coordinate, so Add retains the update's weight slice (no copy) until
// Finish, which reduces coordinates in cache-friendly column blocks with
// quickselect over one reusable gather scratch.
type rankStream struct {
	name string
	trim int
	dim  int
	held [][]float64
	cols []float64
}

func (s *rankStream) Name() string { return s.name }

func (s *rankStream) Begin(dim, clients int) {
	s.dim = dim
	s.held = s.held[:0]
}

func (s *rankStream) Add(u *Update) error {
	if err := checkUpdateDim(u, s.dim); err != nil {
		return err
	}
	s.held = append(s.held, u.Weights)
	return nil
}

func (s *rankStream) Finish(dst []float64) ([]float64, error) {
	defer func() {
		// Drop the retained references (keeping capacity) whether or not
		// the reduction succeeded.
		for i := range s.held {
			s.held[i] = nil
		}
		s.held = s.held[:0]
	}()
	n := len(s.held)
	if n == 0 {
		return nil, ErrNoClients
	}
	if s.trim >= 0 && 2*s.trim >= n {
		return nil, fmt.Errorf("%w: trim %d per side with %d clients",
			ErrBadConfig, s.trim, n)
	}
	if cap(dst) < s.dim {
		dst = make([]float64, s.dim)
	}
	dst = dst[:s.dim]
	s.cols = reduceColumns(dst, s.held, s.cols, s.trim)
	return dst, nil
}

// colBlock is the number of coordinates gathered per reduction block:
// large enough to amortize the strided gather, small enough that the
// gather scratch (colBlock × clients) stays cache-resident.
const colBlock = 256

// reduceColumns fills dst[i] with the median (trim < 0) or trim-per-side
// trimmed mean (trim ≥ 0) of {held[c][i]}. cols is the reusable gather
// scratch, grown as needed and returned.
func reduceColumns(dst []float64, held [][]float64, cols []float64, trim int) []float64 {
	n := len(held)
	dim := len(dst)
	block := colBlock
	if dim < block {
		block = dim
	}
	if cap(cols) < block*n {
		cols = make([]float64, block*n)
	}
	cols = cols[:block*n]
	for base := 0; base < dim; base += block {
		w := block
		if base+w > dim {
			w = dim - base
		}
		// Gather: sequential reads of each client's vector, strided
		// writes into per-coordinate columns.
		for c, h := range held {
			seg := h[base : base+w]
			for j, v := range seg {
				cols[j*n+c] = v
			}
		}
		for j := 0; j < w; j++ {
			col := cols[j*n : (j+1)*n]
			if trim < 0 {
				dst[base+j] = medianOf(col)
			} else {
				dst[base+j] = trimmedMeanOf(col, trim)
			}
		}
	}
	return cols
}

// medianOf returns the median, partially reordering col in place. Cost is
// O(n) via quickselect instead of the O(n log n) full sort.
func medianOf(col []float64) float64 {
	n := len(col)
	hi := mat.SelectKth(col, n/2)
	if n%2 == 1 {
		return hi
	}
	return (mat.MaxOf(col[:n/2]) + hi) / 2
}

// trimmedMeanOf averages col with t extremes removed per side, partially
// reordering col in place: two quickselect partitions pin the kept middle
// without sorting.
func trimmedMeanOf(col []float64, t int) float64 {
	n := len(col)
	if t > 0 {
		mat.SelectKth(col, t)           // col[:t] now holds the t smallest
		mat.SelectKth(col[t:], n-2*t-1) // col[n-t:] now holds the t largest
	}
	var sum float64
	for _, v := range col[t : n-t] {
		sum += v
	}
	return sum / float64(n-2*t)
}

// bufferedStream adapts an arbitrary Aggregator to the streaming API by
// buffering the round — external aggregators keep working, just without
// the in-place guarantees of the built-ins.
type bufferedStream struct {
	agg Aggregator
	buf []Update
	dim int
}

func (s *bufferedStream) Name() string { return s.agg.Name() }

func (s *bufferedStream) Begin(dim, clients int) {
	s.dim = dim
	s.buf = s.buf[:0]
}

func (s *bufferedStream) Add(u *Update) error {
	if err := checkUpdateDim(u, s.dim); err != nil {
		return err
	}
	s.buf = append(s.buf, *u)
	return nil
}

func (s *bufferedStream) Finish(dst []float64) ([]float64, error) {
	out, err := s.agg.Aggregate(s.buf)
	for i := range s.buf {
		s.buf[i] = Update{}
	}
	s.buf = s.buf[:0]
	if err != nil {
		return nil, err
	}
	if cap(dst) < len(out) {
		return out, nil
	}
	dst = dst[:len(out)]
	copy(dst, out)
	return dst, nil
}

// MeanAggregator is sample-weighted FedAvg (the paper's rule).
type MeanAggregator struct{}

var _ Aggregator = MeanAggregator{}

// Name implements Aggregator.
func (MeanAggregator) Name() string { return "fedavg" }

// Aggregate implements Aggregator.
func (MeanAggregator) Aggregate(updates []Update) ([]float64, error) {
	return FedAvg(updates)
}

// UniformAggregator averages updates with equal weight per client,
// regardless of dataset size — the ablation point for FedAvg's sample
// weighting.
type UniformAggregator struct{}

var _ Aggregator = UniformAggregator{}

// Name implements Aggregator.
func (UniformAggregator) Name() string { return "uniform" }

// Aggregate implements Aggregator.
func (UniformAggregator) Aggregate(updates []Update) ([]float64, error) {
	if len(updates) == 0 {
		return nil, ErrNoClients
	}
	dim := len(updates[0].Weights)
	out := make([]float64, dim)
	inv := 1 / float64(len(updates))
	for i := range updates {
		u := &updates[i]
		if err := checkUpdateDim(u, dim); err != nil {
			return nil, err
		}
		mat.Axpy(inv, out, u.Weights)
	}
	return out, nil
}

// MedianAggregator takes the coordinate-wise median of the updates. With
// n clients it tolerates fewer than n/2 arbitrarily corrupted updates per
// coordinate, at the price of ignoring sample weighting.
type MedianAggregator struct{}

var _ Aggregator = MedianAggregator{}

// Name implements Aggregator.
func (MedianAggregator) Name() string { return "median" }

// Aggregate implements Aggregator.
func (MedianAggregator) Aggregate(updates []Update) ([]float64, error) {
	return rankAggregate(updates, -1)
}

// TrimmedMeanAggregator drops the TrimPerSide largest and smallest values
// per coordinate before averaging the rest — the standard Byzantine-
// tolerant compromise between FedAvg's efficiency and the median's
// robustness.
type TrimmedMeanAggregator struct {
	// TrimPerSide is the number of extreme values removed at each end of
	// every coordinate. 2·TrimPerSide must be smaller than the number of
	// participating clients.
	TrimPerSide int
}

var _ Aggregator = TrimmedMeanAggregator{}

// Name implements Aggregator.
func (t TrimmedMeanAggregator) Name() string {
	return fmt.Sprintf("trimmed-mean(%d)", t.TrimPerSide)
}

// Aggregate implements Aggregator.
func (t TrimmedMeanAggregator) Aggregate(updates []Update) ([]float64, error) {
	if t.TrimPerSide < 0 {
		return nil, fmt.Errorf("%w: trim %d per side", ErrBadConfig, t.TrimPerSide)
	}
	return rankAggregate(updates, t.TrimPerSide)
}

// rankAggregate is the one-shot path for the order-statistic aggregators:
// it validates the round, then reuses the same column-blocked quickselect
// reduction as the streaming path (one gather scratch for the whole call,
// no per-coordinate sort allocation).
func rankAggregate(updates []Update, trim int) ([]float64, error) {
	if len(updates) == 0 {
		return nil, ErrNoClients
	}
	n := len(updates)
	if trim >= 0 && 2*trim >= n {
		return nil, fmt.Errorf("%w: trim %d per side with %d clients",
			ErrBadConfig, trim, n)
	}
	dim := len(updates[0].Weights)
	held := make([][]float64, n)
	for i := range updates {
		u := &updates[i]
		if err := checkUpdateDim(u, dim); err != nil {
			return nil, err
		}
		held[i] = u.Weights
	}
	out := make([]float64, dim)
	reduceColumns(out, held, nil, trim)
	return out, nil
}

// NewAggregator builds an aggregator by name: "fedavg" (default),
// "uniform", "median", or "trimmed" (trim 1 per side).
func NewAggregator(name string) (Aggregator, error) {
	switch name {
	case "", "fedavg":
		return MeanAggregator{}, nil
	case "uniform":
		return UniformAggregator{}, nil
	case "median":
		return MedianAggregator{}, nil
	case "trimmed":
		return TrimmedMeanAggregator{TrimPerSide: 1}, nil
	default:
		return nil, fmt.Errorf("%w: unknown aggregator %q", ErrBadConfig, name)
	}
}
