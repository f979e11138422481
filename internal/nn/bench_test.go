package nn

import (
	"testing"

	"github.com/evfed/evfed/internal/rng"
)

// Benchmarks for the BPTT hot path at the paper's working sizes:
// LSTM(1→50) over a 24-step window as a batch of one, the unit of work the
// federated trainer and the autoencoder both execute thousands of times.

func benchSeq(t, d int) Seq {
	r := rng.New(99)
	return randSeq(r, t, d)
}

func BenchmarkLSTMForward(b *testing.B) {
	r := rng.New(1)
	l, err := NewLSTM(1, 50, false, r)
	if err != nil {
		b.Fatal(err)
	}
	m, _ := NewModel(l)
	xs := []Seq{benchSeq(24, 1)}
	ws := NewWorkspace()
	ctx := Context{Train: true, WS: ws}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		m.ForwardBatch(packSeqBatch(ws, xs, nil), &ctx)
	}
}

func BenchmarkLSTMBackward(b *testing.B) {
	// Forward + backward: BPTT needs the forward caches, so the two are
	// benchmarked as the unit the trainer actually executes per batch.
	r := rng.New(1)
	l, err := NewLSTM(1, 50, false, r)
	if err != nil {
		b.Fatal(err)
	}
	m, _ := NewModel(l)
	xs := []Seq{benchSeq(24, 1)}
	ys := []Seq{benchSeq(1, 50)}
	gs := m.NewGradSet()
	ctx := Context{Train: true, WS: NewWorkspace()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gs.Zero()
		trainPass(m, &ctx, xs, ys, MSE{}, gs)
	}
}

// BenchmarkFitEpoch measures one full training epoch of the paper's
// forecaster (LSTM(50) → Dense(10, relu) → Dense(1)) over 64 windows.
func BenchmarkFitEpoch(b *testing.B) {
	m, err := Build(ForecasterSpec(50, 10), 3)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(4)
	n := 64
	inputs := make([]Seq, n)
	targets := make([]Seq, n)
	for i := range inputs {
		inputs[i] = randSeq(r, 24, 1)
		targets[i] = randSeq(r, 1, 1)
	}
	cfg := DefaultTrainConfig(1, 5)
	cfg.Workers = 1
	cfg.Shuffle = false
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(m, inputs, targets, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Batch-32 units at the paper's working sizes: ns/op is the cost of the
// WHOLE 32-sample unit.

func benchBatchData(n int) (xs, ys []Seq) {
	r := rng.New(7)
	xs = make([]Seq, n)
	ys = make([]Seq, n)
	for i := range xs {
		xs[i] = randSeq(r, 24, 1)
		ys[i] = randSeq(r, 1, 1)
	}
	return xs, ys
}

// BenchmarkTrainBatch32Batched is one 32-sample forecaster minibatch
// gradient (forward + loss + backward + averaging) through the pool path
// (single worker, inline).
func BenchmarkTrainBatch32Batched(b *testing.B) {
	m, err := Build(ForecasterSpec(50, 10), 3)
	if err != nil {
		b.Fatal(err)
	}
	xs, ys := benchBatchData(32)
	pool := newGradPool(m, 1, rng.New(5))
	idx := make([]int, 32)
	for i := range idx {
		idx[i] = i
	}
	loss := MSE{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.batchGrad(m, xs, ys, idx, loss)
	}
}

// BenchmarkAEScore32Batched is batch-32 autoencoder window scoring
// (reconstruction MSE of 32 windows) through PredictBatchWS.
func BenchmarkAEScore32Batched(b *testing.B) {
	m, err := Build(AutoencoderSpec(24, 50, 25, 0), 6)
	if err != nil {
		b.Fatal(err)
	}
	xs, _ := benchBatchData(32)
	var loss MSE
	ws := NewWorkspace()
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs := m.PredictBatchWS(xs, ws)
		for k, out := range outs {
			sink += loss.Value(out, xs[k])
		}
	}
	_ = sink
}

// BenchmarkAEScore1Batched is one window through PredictBatchWS — the
// cost of a wave of one, the serving path at low load.
func BenchmarkAEScore1Batched(b *testing.B) {
	m, err := Build(AutoencoderSpec(24, 50, 25, 0), 6)
	if err != nil {
		b.Fatal(err)
	}
	xs, _ := benchBatchData(1)
	var loss MSE
	ws := NewWorkspace()
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += loss.Value(m.PredictBatchWS(xs, ws)[0], xs[0])
	}
	_ = sink
}

// BenchmarkAutoencoderStep measures forward+backward of the paper's
// autoencoder (LSTM(50)→LSTM(25)→Repeat→LSTM(25)→LSTM(50)→Dense(1)) on a
// 24-step window as a batch of one.
func BenchmarkAutoencoderStep(b *testing.B) {
	m, err := Build(AutoencoderSpec(24, 50, 25, 0), 6)
	if err != nil {
		b.Fatal(err)
	}
	xs := []Seq{benchSeq(24, 1)}
	gs := m.NewGradSet()
	ctx := Context{Train: true, WS: NewWorkspace()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gs.Zero()
		trainPass(m, &ctx, xs, xs, MSE{}, gs)
	}
}
