package nn

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"github.com/evfed/evfed/internal/mat"
	"github.com/evfed/evfed/internal/rng"
)

// TrainConfig controls Fit. The zero value is not valid; use the paper's
// hyperparameters via DefaultTrainConfig and override as needed.
type TrainConfig struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the minibatch size (paper: 32).
	BatchSize int
	// Optimizer updates the parameters; required.
	Optimizer Optimizer
	// Loss is the training objective; required.
	Loss Loss
	// Shuffle reshuffles sample order every epoch.
	Shuffle bool
	// Seed drives shuffling and dropout masks.
	Seed uint64
	// ValFrac reserves the trailing fraction of samples for validation
	// (early stopping). 0 disables validation.
	ValFrac float64
	// Patience stops training after this many epochs without validation
	// improvement (paper: 10 for the autoencoder). 0 disables early
	// stopping.
	Patience int
	// ClipNorm caps the global gradient norm per batch. 0 disables.
	ClipNorm float64
	// Workers is the number of parallel gradient workers per batch.
	// 0 selects GOMAXPROCS.
	Workers int
	// ProxMu adds FedProx's proximal term μ/2·‖w − w_ref‖² to the
	// objective: every batch gradient gains μ·(w − ProxRef). This
	// regularizes local training toward the global model on heterogeneous
	// federated clients. 0 disables; ProxRef must be a flat weight vector
	// (see Model.WeightsVector) when ProxMu > 0.
	ProxMu float64
	// ProxRef is the reference weight vector for the proximal term.
	ProxRef []float64
}

// DefaultTrainConfig returns the paper's standardized hyperparameters:
// batch 32, Adam with lr 1e-3, MSE loss, shuffled batches.
func DefaultTrainConfig(epochs int, seed uint64) TrainConfig {
	return TrainConfig{
		Epochs:    epochs,
		BatchSize: 32,
		Optimizer: NewAdam(0.001),
		Loss:      MSE{},
		Shuffle:   true,
		Seed:      seed,
		ClipNorm:  5,
	}
}

// History records per-epoch training diagnostics.
type History struct {
	TrainLoss []float64
	ValLoss   []float64 // empty when ValFrac == 0
	// StoppedEarly reports whether patience triggered before Epochs.
	StoppedEarly bool
	// BestEpoch is the epoch index (0-based) with the lowest validation
	// loss, or the final epoch when validation is disabled.
	BestEpoch int
}

// FinalTrainLoss returns the last recorded training loss (NaN when empty).
func (h History) FinalTrainLoss() float64 {
	if len(h.TrainLoss) == 0 {
		return math.NaN()
	}
	return h.TrainLoss[len(h.TrainLoss)-1]
}

// ErrNoData is returned when Fit receives no samples.
var ErrNoData = errors.New("nn: no training samples")

// Fit trains the model on aligned inputs/targets.
//
// Each minibatch gradient is the average of per-sample gradients computed
// concurrently by cfg.Workers goroutines; each worker owns its caches,
// gradient buffers and RNG sub-stream, so results are deterministic for a
// given (Seed, Workers) pair and independent of scheduling.
func Fit(m *Model, inputs, targets []Seq, cfg TrainConfig) (History, error) {
	if len(inputs) == 0 {
		return History{}, ErrNoData
	}
	if len(inputs) != len(targets) {
		return History{}, fmt.Errorf("%w: %d inputs vs %d targets", ErrShape, len(inputs), len(targets))
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		return History{}, fmt.Errorf("%w: epochs=%d batch=%d", ErrBadConfig, cfg.Epochs, cfg.BatchSize)
	}
	if cfg.Optimizer == nil || cfg.Loss == nil {
		return History{}, fmt.Errorf("%w: optimizer and loss are required", ErrBadConfig)
	}
	if cfg.ValFrac < 0 || cfg.ValFrac >= 1 {
		return History{}, fmt.Errorf("%w: val fraction %v", ErrBadConfig, cfg.ValFrac)
	}
	if cfg.ProxMu < 0 {
		return History{}, fmt.Errorf("%w: proximal mu %v", ErrBadConfig, cfg.ProxMu)
	}
	if cfg.ProxMu > 0 && len(cfg.ProxRef) != m.NumParams() {
		return History{}, fmt.Errorf("%w: proximal reference has %d weights, model has %d",
			ErrShape, len(cfg.ProxRef), m.NumParams())
	}

	// Temporal validation split (trailing samples), mirroring Keras'
	// validation_split semantics.
	nVal := int(float64(len(inputs)) * cfg.ValFrac)
	nTrain := len(inputs) - nVal
	if nTrain == 0 {
		return History{}, fmt.Errorf("%w: validation split leaves no training data", ErrBadConfig)
	}
	trainX, trainY := inputs[:nTrain], targets[:nTrain]
	valX, valY := inputs[nTrain:], targets[nTrain:]

	maxBatch := cfg.BatchSize
	if maxBatch > nTrain {
		maxBatch = nTrain
	}
	workers := effectiveWorkers(cfg.Workers, maxBatch)

	src := rng.New(cfg.Seed)
	pool := newGradPool(m, workers, src)
	params := flatParams(m)

	var hist History
	bestVal := math.Inf(1)
	bestWeights := m.WeightsVector()
	sinceBest := 0
	order := make([]int, nTrain)
	for i := range order {
		order[i] = i
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.Shuffle {
			src.Shuffle(order)
		}
		var epochLoss float64
		var batches int
		for start := 0; start < nTrain; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > nTrain {
				end = nTrain
			}
			idx := order[start:end]
			loss, gs := pool.batchGrad(m, trainX, trainY, idx, cfg.Loss)
			if cfg.ProxMu > 0 {
				addProximal(pool.flat, params, cfg.ProxRef, cfg.ProxMu)
			}
			gs.ClipGlobalNorm(cfg.ClipNorm)
			cfg.Optimizer.Step(params, pool.flat)
			epochLoss += loss
			batches++
		}
		hist.TrainLoss = append(hist.TrainLoss, epochLoss/float64(batches))

		if nVal > 0 {
			vl := pool.evalLoss(m, valX, valY, cfg.Loss)
			hist.ValLoss = append(hist.ValLoss, vl)
			if vl < bestVal-1e-12 {
				bestVal = vl
				hist.BestEpoch = epoch
				bestWeights = m.WeightsVector()
				sinceBest = 0
			} else {
				sinceBest++
				if cfg.Patience > 0 && sinceBest >= cfg.Patience {
					hist.StoppedEarly = true
					break
				}
			}
		} else {
			hist.BestEpoch = epoch
		}
	}
	if nVal > 0 {
		// Restore the best validation weights, as Keras'
		// restore_best_weights does.
		if err := m.SetWeightsVector(bestWeights); err != nil {
			return hist, err
		}
	}
	return hist, nil
}

// addProximal accumulates FedProx's μ·(w − ref) into the flat gradients.
func addProximal(flat []*mat.Matrix, params []*mat.Matrix, ref []float64, mu float64) {
	off := 0
	for pi, p := range params {
		g := flat[pi].Data
		for j := range p.Data {
			g[j] += mu * (p.Data[j] - ref[off+j])
		}
		off += len(p.Data)
	}
}

// effectiveWorkers is the single place the configured worker count is
// resolved and clamped: requested (0 selecting GOMAXPROCS) capped by the
// most samples any parallel region can usefully split (for Fit, the
// smaller of BatchSize and the training-set size — a tiny dataset must
// not spawn idle workers).
//
// Invariant: the pool is sized here, once. Per-call code (batchGrad,
// evalLoss) never re-derives a worker count from the config; it only
// shrinks the ACTIVE worker count to the per-call sample count — the
// final ragged batch and a short validation split can carry fewer samples
// than the pool has workers. Each worker's per-run sub-batch size is in
// turn bounded by ceil(samples/activeWorkers) ≤ BatchSize, so batch
// arenas never outgrow the configured batch.
func effectiveWorkers(requested, samples int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > samples {
		w = samples
	}
	if w < 1 {
		w = 1
	}
	return w
}

// evalLoss computes the mean validation loss, fanning contiguous sample
// chunks across the pool's workers and scoring each chunk with the
// batched inference path. Per-worker partial sums combine in worker
// order, so the returned mean is bit-identical across runs for a fixed
// worker count.
func (p *gradPool) evalLoss(m *Model, xs, ys []Seq, loss Loss) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	workers := len(p.wss)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		p.losses[0] = evalChunk(m, xs, ys, loss, p.wss[0])
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lo, hi := w*n/workers, (w+1)*n/workers
				p.losses[w] = evalChunk(m, xs[lo:hi], ys[lo:hi], loss, p.wss[w])
			}(w)
		}
		wg.Wait()
	}
	var sum float64
	for _, l := range p.losses[:workers] {
		sum += l
	}
	return sum / float64(n)
}

// evalChunk sums the per-sample losses of xs, predicting PredictBatch
// samples per batched pass.
func evalChunk(m *Model, xs, ys []Seq, loss Loss, ws *Workspace) float64 {
	var sum float64
	m.PredictChunked(xs, ws, func(i int, out Seq) {
		sum += loss.Value(out, ys[i])
	})
	return sum
}

// gradPool owns the per-worker gradient buffers, RNG sub-streams and
// scratch workspaces. Every buffer a batch needs lives here, so the
// steady-state batch loop performs no heap allocation beyond the worker
// goroutines themselves (and none at all with a single worker, which runs
// inline).
type gradPool struct {
	grads  []*GradSet
	rngs   []*rng.Source
	wss    []*Workspace
	wbs    []*workerBatch
	losses []float64
	// flat is grads[0] (the accumulation target) flattened once, reused
	// for every optimizer step and proximal update.
	flat []*mat.Matrix
}

// workerBatch is one worker's reusable sub-batch state: the sample
// indices it drew from the current minibatch, the per-sample RNG
// sub-streams feeding stochastic layers, and a reusable Context (handing
// the same *Context to every interface call keeps it off the per-run
// heap).
type workerBatch struct {
	idx  []int
	rngs []*rng.Source
	ctx  Context
}

func newGradPool(m *Model, workers int, src *rng.Source) *gradPool {
	p := &gradPool{
		grads:  make([]*GradSet, workers),
		rngs:   make([]*rng.Source, workers),
		wss:    make([]*Workspace, workers),
		wbs:    make([]*workerBatch, workers),
		losses: make([]float64, workers),
	}
	for i := 0; i < workers; i++ {
		p.grads[i] = m.NewGradSet()
		p.rngs[i] = src.Split()
		p.wss[i] = NewWorkspace()
		p.wbs[i] = &workerBatch{}
	}
	p.flat = p.grads[0].Flat()
	return p
}

// batchGrad computes the mean loss and mean gradient over the samples in
// idx, fanning the work across the pool's workers. Each worker consumes
// its share as GEMM sub-batches through the batched forward/backward path
// (maximal runs of same-shape samples per batch; a mixed-shape corpus
// degrades gracefully to smaller runs). The result accumulates into
// p.grads[0] (aliased by p.flat). Precondition: 1 <= len(idx) (see
// effectiveWorkers for the worker-count invariant).
func (p *gradPool) batchGrad(m *Model, xs, ys []Seq, idx []int, loss Loss) (float64, *GradSet) {
	workers := len(p.grads)
	if workers > len(idx) {
		workers = len(idx)
	}
	if workers == 1 {
		// Inline fast path: no goroutine (and no WaitGroup, which would
		// escape), so the steady-state batch step is allocation-free.
		p.grads[0].Zero()
		p.workerGrad(0, 1, m, xs, ys, idx, loss)
	} else {
		p.spawnWorkers(workers, m, xs, ys, idx, loss)
	}

	total := p.grads[0]
	for w := 1; w < workers; w++ {
		total.Add(p.grads[w])
	}
	inv := 1 / float64(len(idx))
	total.Scale(inv)
	var lossSum float64
	for _, l := range p.losses[:workers] {
		lossSum += l
	}
	return lossSum * inv, total
}

// spawnWorkers fans workerGrad across goroutines (kept out of batchGrad
// so its escaping WaitGroup is not allocated on the single-worker path).
func (p *gradPool) spawnWorkers(workers int, m *Model, xs, ys []Seq, idx []int, loss Loss) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		p.grads[w].Zero()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p.workerGrad(w, workers, m, xs, ys, idx, loss)
		}(w)
	}
	wg.Wait()
}

// workerGrad accumulates gradients for worker w's strided share of idx.
// Every sample first receives an RNG sub-stream reseeded from the worker
// stream — in sample order, one draw per sample — so dropout masks are
// deterministic for a fixed (Seed, Workers) pair and independent of how
// the share splits into runs.
func (p *gradPool) workerGrad(w, workers int, m *Model, xs, ys []Seq, idx []int, loss Loss) {
	ws := p.wss[w]
	wb := p.wbs[w]
	wb.idx = wb.idx[:0]
	for k := w; k < len(idx); k += workers {
		wb.idx = append(wb.idx, idx[k])
	}
	for len(wb.rngs) < len(wb.idx) {
		wb.rngs = append(wb.rngs, rng.New(0))
	}
	for i := range wb.idx {
		wb.rngs[i].Reseed(p.rngs[w].Uint64())
	}
	var localLoss float64
	for lo := 0; lo < len(wb.idx); {
		hi := lo + 1
		for hi < len(wb.idx) &&
			len(xs[wb.idx[hi]]) == len(xs[wb.idx[lo]]) &&
			len(ys[wb.idx[hi]]) == len(ys[wb.idx[lo]]) {
			hi++
		}
		ws.Reset()
		wb.ctx.Train = true
		wb.ctx.WS = ws
		wb.ctx.BatchRNGs = wb.rngs[lo:hi]
		xb := packSeqBatch(ws, xs, wb.idx[lo:hi])
		yb := packSeqBatch(ws, ys, wb.idx[lo:hi])
		out, caches := m.ForwardBatch(xb, &wb.ctx)
		// EvalBatchInto overwrites every element of dOut, so the unzeroed
		// arena form is safe.
		dOut := wsBatchRaw(ws, out.T(), out.B, out.D)
		localLoss += loss.EvalBatchInto(dOut, out, yb)
		m.BackwardBatch(caches, dOut, p.grads[w])
		lo = hi
	}
	p.losses[w] = localLoss
}

// flatParams returns the model parameter matrices in the same order as
// GradSet.Flat, for handing to an Optimizer.
func flatParams(m *Model) []*mat.Matrix {
	var out []*mat.Matrix
	for _, p := range m.Params() {
		out = append(out, p.Value)
	}
	return out
}
