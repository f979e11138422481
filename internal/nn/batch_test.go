package nn

import (
	"math"
	"testing"

	"github.com/evfed/evfed/internal/rng"
)

// Batch tests: a batch must behave as its samples one at a time. In
// inference every row is bit-identical to the sample predicted alone (the
// kernels are row-invariant); summed gradients match the sum of batches of
// one within 1e-9 (the weight-gradient GEMM sums over rows in blocked
// order). The layers themselves are held to internal/reftest in
// reference_test.go and to finite differences in gradcheck_test.go.

const batchTol = 1e-9

func cloneSeq(s Seq) Seq {
	out := make(Seq, len(s))
	for t := range s {
		out[t] = append([]float64(nil), s[t]...)
	}
	return out
}

func seqsWithin(t *testing.T, name string, got, want Seq, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vs %d timesteps", name, len(got), len(want))
	}
	for tt := range got {
		if len(got[tt]) != len(want[tt]) {
			t.Fatalf("%s: t=%d: %d vs %d features", name, tt, len(got[tt]), len(want[tt]))
		}
		for j := range got[tt] {
			if math.Abs(got[tt][j]-want[tt][j]) > tol {
				t.Fatalf("%s: t=%d j=%d: %v vs %v", name, tt, j, got[tt][j], want[tt][j])
			}
		}
	}
}

func gradSetsWithin(t *testing.T, got, want *GradSet, tol float64) {
	t.Helper()
	for li := range want.ByLayer {
		for pi := range want.ByLayer[li] {
			g, w := got.ByLayer[li][pi], want.ByLayer[li][pi]
			for k := range w.Data {
				if math.Abs(g.Data[k]-w.Data[k]) > tol {
					t.Fatalf("grad layer %d param %d elem %d: %v vs %v",
						li, pi, k, g.Data[k], w.Data[k])
				}
			}
		}
	}
}

// forwardParity checks that PredictBatchWS gives every sample the bits
// Predict (a batch of one) gives it alone.
func forwardParity(t *testing.T, m *Model, xs []Seq) {
	t.Helper()
	want := make([]Seq, len(xs))
	for i, x := range xs {
		want[i] = m.Predict(x)
	}
	ws := NewWorkspace()
	for range 2 { // second pass exercises warmed arenas
		got := m.PredictBatchWS(xs, ws)
		for i := range xs {
			seqsWithin(t, "forward", got[i], want[i], 0)
		}
	}
}

// backwardParity compares one workspace-backed forward/loss/backward pass
// over the batch against the sum of batches of one over the same samples
// (dropout-free models).
func backwardParity(t *testing.T, m *Model, xs, ys []Seq, loss Loss) {
	t.Helper()
	gsWant := m.NewGradSet()
	var lossWant float64
	for i := range xs {
		lossWant += gradBatch(m, xs[i:i+1], ys[i:i+1], loss, gsWant)
	}

	ws := NewWorkspace()
	bctx := Context{Train: true, WS: ws}
	xb := packSeqBatch(ws, xs, seqIndices(len(xs)))
	yb := packSeqBatch(ws, ys, nil)
	out, caches := m.ForwardBatch(xb, &bctx)
	dOut := wsBatchRaw(ws, out.T(), out.B, out.D)
	lossGot := loss.EvalBatchInto(dOut, out, yb)
	gsGot := m.NewGradSet()
	m.BackwardBatch(caches, dOut, gsGot)

	if math.Abs(lossGot-lossWant) > batchTol {
		t.Fatalf("batch loss %v vs per-sample %v", lossGot, lossWant)
	}
	gradSetsWithin(t, gsGot, gsWant, batchTol)
}

func seqIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func TestBatchParityLSTM(t *testing.T) {
	for _, returnSeq := range []bool{false, true} {
		r := rng.New(21)
		l, err := NewLSTM(3, 7, returnSeq, r)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := NewModel(l)
		var xs, ys []Seq
		outT := 1
		if returnSeq {
			outT = 6
		}
		for i := 0; i < 5; i++ {
			xs = append(xs, randSeq(r, 6, 3))
			ys = append(ys, randSeq(r, outT, 7))
		}
		forwardParity(t, m, xs)
		backwardParity(t, m, xs, ys, MSE{})
	}
}

func TestBatchParityDense(t *testing.T) {
	for _, act := range []Activation{Linear, ReLU, Tanh, Sigmoid} {
		r := rng.New(23)
		d, err := NewDense(4, 3, act, r)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := NewModel(d)
		var xs, ys []Seq
		for i := 0; i < 6; i++ {
			xs = append(xs, randSeq(r, 5, 4))
			ys = append(ys, randSeq(r, 5, 3))
		}
		forwardParity(t, m, xs)
		backwardParity(t, m, xs, ys, MSE{})
	}
}

func TestBatchParityForecaster(t *testing.T) {
	m, err := Build(ForecasterSpec(10, 6), 31)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(32)
	var xs, ys []Seq
	for i := 0; i < 32; i++ {
		xs = append(xs, randSeq(r, 24, 1))
		ys = append(ys, randSeq(r, 1, 1))
	}
	forwardParity(t, m, xs)
	backwardParity(t, m, xs, ys, MSE{})
	backwardParity(t, m, xs, ys, Huber{Delta: 0.5})
	backwardParity(t, m, xs, ys, MAE{})
}

func TestBatchParityAutoencoder(t *testing.T) {
	// Dropout disabled so a batch and its batches of one see identical
	// networks; the stochastic path is covered by the determinism test.
	m, err := Build(AutoencoderSpec(8, 10, 5, 0), 33)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(34)
	var xs []Seq
	for i := 0; i < 9; i++ {
		xs = append(xs, randSeq(r, 8, 1))
	}
	forwardParity(t, m, xs)
	backwardParity(t, m, xs, xs, MSE{})
}

// TestBatchDropoutDeterminism pins the stochastic contract: sample b's
// dropout mask is a pure function of BatchRNGs[b]'s stream, so (a) two
// batched passes with identically reseeded sub-streams agree bit-for-bit
// and (b) each sample run alone, as a batch of one on the same seed, gets
// the same bits as its row of the batch.
func TestBatchDropoutDeterminism(t *testing.T) {
	m, err := Build(AutoencoderSpec(6, 8, 4, 0.3), 41)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(42)
	const B = 5
	var xs []Seq
	for i := 0; i < B; i++ {
		xs = append(xs, randSeq(r, 6, 1))
	}
	seeds := []uint64{101, 202, 303, 404, 505}

	runBatched := func(xs []Seq, seeds []uint64) []Seq {
		rngs := make([]*rng.Source, len(xs))
		for i := range rngs {
			rngs[i] = rng.New(seeds[i])
		}
		ws := NewWorkspace()
		ctx := Context{Train: true, WS: ws, BatchRNGs: rngs}
		xb := packSeqBatch(ws, xs, nil)
		out, _ := m.ForwardBatch(xb, &ctx)
		res := make([]Seq, len(xs))
		for b := range res {
			res[b] = cloneSeq(sampleView(nil, out, b))
		}
		return res
	}

	a, b := runBatched(xs, seeds), runBatched(xs, seeds)
	for i := range a {
		for tt := range a[i] {
			for j := range a[i][tt] {
				if a[i][tt][j] != b[i][tt][j] {
					t.Fatalf("batched dropout not reproducible at sample %d t=%d j=%d", i, tt, j)
				}
			}
		}
	}

	for i := 0; i < B; i++ {
		alone := runBatched(xs[i:i+1], seeds[i:i+1])
		seqsWithin(t, "dropout alone", a[i], alone[0], 0)
	}
}

// TestBatchGradRaggedFinalBatch drives batchGrad with fewer samples than
// pool workers and a non-uniform split (the final-minibatch shape) and
// checks the result against the mean over batches of one.
func TestBatchGradRaggedFinalBatch(t *testing.T) {
	m, err := Build(ForecasterSpec(6, 4), 51)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(52)
	var xs, ys []Seq
	for i := 0; i < 7; i++ {
		xs = append(xs, randSeq(r, 10, 1))
		ys = append(ys, randSeq(r, 1, 1))
	}
	for _, nIdx := range []int{1, 2, 3, 7} {
		pool := newGradPool(m, 4, rng.New(53)) // more workers than some batches
		idx := seqIndices(nIdx)
		loss := MSE{}
		gotLoss, gs := pool.batchGrad(m, xs, ys, idx, loss)

		gsWant := m.NewGradSet()
		var lossWant float64
		for _, i := range idx {
			lossWant += gradBatch(m, xs[i:i+1], ys[i:i+1], loss, gsWant)
		}
		inv := 1 / float64(nIdx)
		gsWant.Scale(inv)
		lossWant *= inv

		if math.Abs(gotLoss-lossWant) > batchTol {
			t.Fatalf("n=%d: loss %v vs %v", nIdx, gotLoss, lossWant)
		}
		gradSetsWithin(t, gs, gsWant, batchTol)
	}
}

// TestPredictBatchWSRagged checks length bucketing: mixed-length inputs
// come back in input order with the bits each gets predicted alone.
func TestPredictBatchWSRagged(t *testing.T) {
	r := rng.New(61)
	l, err := NewLSTM(2, 4, true, r)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewModel(l)
	lengths := []int{5, 3, 5, 8, 3, 5, 8, 1}
	xs := make([]Seq, len(lengths))
	for i, n := range lengths {
		xs[i] = randSeq(r, n, 2)
	}
	want := make([]Seq, len(xs))
	for i, x := range xs {
		want[i] = m.Predict(x)
	}
	ws := NewWorkspace()
	got := m.PredictBatchWS(xs, ws)
	for i := range xs {
		seqsWithin(t, "ragged predict", got[i], want[i], 0)
	}
}

// TestBatchGradcheck is the finite-difference ground truth for the
// trainer's minibatch gradient: batchGrad's mean gradient, computed by
// two workers over sub-batches of a three-sample batch, against central
// differences of the mean per-sample loss.
func TestBatchGradcheck(t *testing.T) {
	m, err := Build(AutoencoderSpec(5, 6, 3, 0), 71)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(72)
	xs := randSeqs(r, 3, 5, 1)
	loss := MSE{}
	meanLoss := func() float64 {
		var sum float64
		for _, x := range xs {
			sum += loss.Value(m.Predict(x), x)
		}
		return sum / float64(len(xs))
	}

	pool := newGradPool(m, 2, rng.New(73))
	_, gs := pool.batchGrad(m, xs, xs, seqIndices(len(xs)), loss)

	const eps = 1e-6
	flatG := gs.Flat()
	checked := 0
	for pi, p := range flatParams(m) {
		for j := range p.Data {
			orig := p.Data[j]
			p.Data[j] = orig + eps
			lossPlus := meanLoss()
			p.Data[j] = orig - eps
			lossMinus := meanLoss()
			p.Data[j] = orig
			numGrad := (lossPlus - lossMinus) / (2 * eps)
			anaGrad := flatG[pi].Data[j]
			denom := math.Max(1, math.Abs(numGrad)+math.Abs(anaGrad))
			if math.Abs(numGrad-anaGrad)/denom > 1e-5 {
				t.Fatalf("param %d[%d]: numerical %v vs analytic %v", pi, j, numGrad, anaGrad)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no parameters checked")
	}
}

// TestPoolEvalLossParallel checks the fanned-out validation pass: bit
// identical across repeat calls for a fixed worker count and within
// tolerance of a sample-by-sample mean.
func TestPoolEvalLossParallel(t *testing.T) {
	m, err := Build(ForecasterSpec(6, 4), 81)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(82)
	var xs, ys []Seq
	for i := 0; i < 77; i++ {
		xs = append(xs, randSeq(r, 12, 1))
		ys = append(ys, randSeq(r, 1, 1))
	}
	var want float64
	for i := range xs {
		want += MSE{}.Value(m.Predict(xs[i]), ys[i])
	}
	want /= float64(len(xs))
	for _, workers := range []int{1, 3, 8} {
		pool := newGradPool(m, workers, rng.New(83))
		a := pool.evalLoss(m, xs, ys, MSE{})
		b := pool.evalLoss(m, xs, ys, MSE{})
		if a != b {
			t.Fatalf("workers=%d: eval loss not reproducible: %v vs %v", workers, a, b)
		}
		if math.Abs(a-want) > batchTol {
			t.Fatalf("workers=%d: eval loss %v vs sequential %v", workers, a, want)
		}
	}
}

func TestEffectiveWorkers(t *testing.T) {
	cases := []struct{ req, samples, want int }{
		{0, 1000, 1}, // GOMAXPROCS >= 1; clamp below covers single-core CI
		{8, 3, 3},
		{2, 100, 2},
		{5, 0, 1},
		{-3, 10, 1}, // negative resolves to GOMAXPROCS then clamps to >= 1
	}
	for _, c := range cases {
		got := effectiveWorkers(c.req, c.samples)
		if c.req == 0 || c.req < 0 {
			// Resolved from GOMAXPROCS: only the bounds are portable.
			if got < 1 || (c.samples > 0 && got > c.samples) {
				t.Fatalf("effectiveWorkers(%d, %d) = %d out of bounds", c.req, c.samples, got)
			}
			continue
		}
		if got != c.want {
			t.Fatalf("effectiveWorkers(%d, %d) = %d, want %d", c.req, c.samples, got, c.want)
		}
	}
}

// TestBatchedTrainSteadyStateAllocs is the alloc guard for the batched
// training hot path: after warm-up, a single-worker batchGrad step (the
// inline path) must not allocate.
func TestBatchedTrainSteadyStateAllocs(t *testing.T) {
	m, err := Build(ForecasterSpec(8, 4), 91)
	if err != nil {
		t.Fatal(err)
	}
	inputs, targets := sineDataset(64, 8, 92)
	pool := newGradPool(m, 1, rng.New(93))
	idx := seqIndices(32)
	loss := MSE{}
	for i := 0; i < 3; i++ {
		pool.batchGrad(m, inputs, targets, idx, loss)
	}
	allocs := testing.AllocsPerRun(5, func() {
		pool.batchGrad(m, inputs, targets, idx, loss)
	})
	if allocs != 0 {
		t.Fatalf("batched train step allocated %v times per run", allocs)
	}
}

// TestPredictBatchWSSteadyStateAllocs is the alloc guard for batched
// scoring: a uniform-length batch through a warmed workspace is
// allocation-free.
func TestPredictBatchWSSteadyStateAllocs(t *testing.T) {
	m, err := Build(AutoencoderSpec(8, 10, 5, 0), 95)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(96)
	xs := make([]Seq, 32)
	for i := range xs {
		xs[i] = randSeq(r, 8, 1)
	}
	ws := NewWorkspace()
	for i := 0; i < 3; i++ {
		m.PredictBatchWS(xs, ws)
	}
	allocs := testing.AllocsPerRun(5, func() {
		m.PredictBatchWS(xs, ws)
	})
	if allocs != 0 {
		t.Fatalf("batched predict allocated %v times per run", allocs)
	}
}

// TestBatchShapePanics pins the batched path's shape diagnostics.
func TestBatchShapePanics(t *testing.T) {
	r := rng.New(97)
	l, _ := NewLSTM(2, 3, false, r)
	m, _ := NewModel(l)
	ws := NewWorkspace()

	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("wrong width", func() {
		xb := packSeqBatch(ws, []Seq{randSeq(r, 4, 3)}, nil)
		m.ForwardBatch(xb, &Context{WS: ws})
	})
	expectPanic("missing batch rngs", func() {
		d, _ := NewDropout(2, 0.5)
		dm, _ := NewModel(d)
		xb := packSeqBatch(ws, []Seq{randSeq(r, 4, 2)}, nil)
		dm.ForwardBatch(xb, &Context{WS: ws, Train: true})
	})
}
