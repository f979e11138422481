package main

import (
	"runtime"
	"sort"
	"time"

	"github.com/evfed/evfed/internal/anomaly"
	"github.com/evfed/evfed/internal/autoencoder"
	"github.com/evfed/evfed/internal/dataset"
	"github.com/evfed/evfed/internal/fed"
	"github.com/evfed/evfed/internal/fed/wire"
	"github.com/evfed/evfed/internal/mat"
	"github.com/evfed/evfed/internal/nn"
	"github.com/evfed/evfed/internal/rng"
)

// Layer probes: direct calls into each layer's public functions at the
// shapes the workloads use, run after the traced workload. They say how
// fast a layer is on this host in isolation; the spans and counters of
// the traced run say how much of the workload it is.

// probeBudget is the measuring time spent on one probe.
const probeBudget = 120 * time.Millisecond

// nsPerOp times fn: after one warm-up call it runs five batches that
// together fill probeBudget and returns the median batch's nanoseconds
// per call.
func nsPerOp(fn func()) float64 {
	fn()
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	if one <= 0 {
		one = time.Nanosecond
	}
	const batches = 5
	iters := int(probeBudget / batches / one)
	if iters < 1 {
		iters = 1
	}
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0)) / float64(iters)
	}
	sort.Float64s(per)
	return per[batches/2]
}

func randMatrix(r *rng.Source, rows, cols int) *mat.Matrix {
	m := mat.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Normal(0, 0.5)
	}
	return m
}

func randBatch(r *rng.Source, t, b, d int) *nn.BatchSeq {
	bs := &nn.BatchSeq{B: b, D: d}
	for i := 0; i < t; i++ {
		bs.Steps = append(bs.Steps, randMatrix(r, b, d))
	}
	return bs
}

func randSeqs(r *rng.Source, n, t, d int) []nn.Seq {
	out := make([]nn.Seq, n)
	for i := range out {
		s := make(nn.Seq, t)
		for k := range s {
			s[k] = make([]float64, d)
			for j := range s[k] {
				s[k][j] = r.Float64()
			}
		}
		out[i] = s
	}
	return out
}

// computeProbes fills the mat, nn, autoencoder and anomaly metrics: the
// layers under pipeline and under the serve workloads.
func computeProbes(layer map[string]float64, seed uint64) {
	r := rng.New(seed ^ 0x9e0be5)
	const units, seqLen, batch, wave = 50, 24, 32, 64

	// mat: the LSTM gate GEMM Z = H·Wᵀ + b at the forecaster's training
	// batch (32 × 50 by 200 × 50) and at a serving wave of 64 windows.
	gemm := func(rows int) float64 {
		h, wgt := randMatrix(r, rows, units), randMatrix(r, 4*units, units)
		z, bias := mat.NewMatrix(rows, 4*units), make([]float64, 4*units)
		ns := nsPerOp(func() { z.MulTBias(h, wgt, bias) })
		return 2 * float64(rows) * 4 * units * units / ns // flop per ns = GFLOP/s
	}
	layer["mat.gemm_train_gflops"] = gemm(batch)
	layer["mat.gemm_score_gflops"] = gemm(wave)
	panel := randMatrix(r, batch, 4*units)
	layer["mat.gate_act_ns_per_elem"] = nsPerOp(func() { panel.GateActivationsRows(units) }) / float64(batch*4*units)

	// nn: one LSTM(1→50) over 24 steps at batch 32, forward alone and
	// forward+backward (BPTT needs the forward caches); one Fit epoch and
	// one batched prediction of the paper's forecaster.
	lstm, err := nn.NewLSTM(1, units, false, rng.New(seed+1))
	if err != nil {
		return
	}
	model, err := nn.NewModel(lstm)
	if err != nil {
		return
	}
	x := randBatch(r, seqLen, batch, 1)
	dOut := randBatch(r, 1, batch, units)
	ws := nn.NewWorkspace()
	ctx := nn.Context{Train: true, WS: ws}
	gs := model.NewGradSet()
	layer["nn.lstm_fwd_us"] = nsPerOp(func() {
		ws.Reset()
		model.ForwardBatch(x, &ctx)
	}) / 1e3
	layer["nn.lstm_bwd_us"] = nsPerOp(func() {
		ws.Reset()
		gs.Zero()
		_, caches := model.ForwardBatch(x, &ctx)
		model.BackwardBatch(caches, dOut, gs)
	}) / 1e3

	forecaster, err := nn.Build(nn.ForecasterSpec(units, 10), seed+2)
	if err != nil {
		return
	}
	inputs, targets := randSeqs(r, 256, seqLen, 1), randSeqs(r, 256, 1, 1)
	cfg := nn.DefaultTrainConfig(1, seed+3)
	cfg.Workers = 2
	var mem0, mem1 runtime.MemStats
	epochs := 0
	runtime.ReadMemStats(&mem0)
	layer["nn.fit_epoch_ms"] = nsPerOp(func() {
		epochs++
		if _, err := nn.Fit(forecaster, inputs, targets, cfg); err != nil {
			panic(err)
		}
	}) / 1e6
	runtime.ReadMemStats(&mem1)
	layer["nn.fit_allocs_per_epoch"] = float64(mem1.Mallocs-mem0.Mallocs) / float64(epochs)
	pws := nn.NewWorkspace()
	layer["nn.predict_batch_us"] = nsPerOp(func() { forecaster.PredictBatchWS(inputs[:batch], pws) }) / 1e3

	// autoencoder and anomaly: detector training at the serving
	// configuration, batched and streaming window scoring, and the offline
	// filter end to end.
	t0 := time.Now()
	det, sc, _, err := serveDetector(seed)
	if err != nil {
		return
	}
	layer["autoencoder.train_s"] = time.Since(t0).Seconds()
	gen, err := dataset.Generate(dataset.Config{Profile: dataset.Profile105(), Hours: 600, Seed: seed + 4})
	if err != nil {
		return
	}
	values, err := sc.Transform(gen.Series.Values)
	if err != nil {
		return
	}
	windows := make([][]float64, 512)
	for i := range windows {
		windows[i] = values[i%(len(values)-seqLen):][:seqLen]
	}
	scores := make([]float64, len(windows))
	bsc := det.NewBatchScorer()
	layer["autoencoder.score_windows_per_s"] = float64(len(windows)) * 1e9 /
		nsPerOp(func() {
			if err := bsc.ScoreWindowsInto(scores, windows); err != nil {
				panic(err)
			}
		})
	ssc := det.NewStreamScorer()
	layer["autoencoder.stream_score_ns"] = nsPerOp(func() {
		if _, err := ssc.ScoreLast(windows[0]); err != nil {
			panic(err)
		}
	})
	filter, err := anomaly.NewFilter(autoencoder.Adapter{Detector: det}, anomaly.DefaultConfig())
	if err != nil {
		return
	}
	if err := filter.Calibrate(values[:300]); err != nil {
		return
	}
	layer["anomaly.filter_points_per_s"] = float64(len(values)) * 1e9 /
		nsPerOp(func() {
			if _, err := filter.Apply(values); err != nil {
				panic(err)
			}
		})
}

// fedWireProbes fills the fed and wire kernel metrics at the forecaster's
// dimension: the layers under fed-tree.
func fedWireProbes(layer map[string]float64, seed uint64, dim int) {
	r := rng.New(seed ^ 0xf3d)
	vec := func(std float64) []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = r.Normal(0, std)
		}
		return v
	}
	mb := float64(dim*8) / 1e6

	// wire: vector codecs both ways. q8 encodes a delta against a
	// reference, as a round's update does against its broadcast.
	ref := vec(0.1)
	upd := vec(0.1)
	for i := range upd {
		upd[i] = ref[i] + 0.01*upd[i]
	}
	for _, c := range []struct {
		name  string
		codec wire.VecCodec
	}{{"none", wire.VecF64}, {"f32", wire.VecF32}, {"q8", wire.VecQ8}} {
		var buf []byte
		var err error
		encNS := nsPerOp(func() {
			if buf, err = wire.AppendVector(buf[:0], c.codec, upd, ref, nil); err != nil {
				panic(err)
			}
		})
		dst := make([]float64, dim)
		decNS := nsPerOp(func() {
			if dst, _, err = wire.DecodeVector(buf, dst, ref); err != nil {
				panic(err)
			}
		})
		layer["wire.encode_mb_per_s."+c.name] = mb * 1e9 / encNS
		layer["wire.decode_mb_per_s."+c.name] = mb * 1e9 / decNS
	}
	part := wire.TrainPartial{
		NodeID: "edge-0", Kind: uint8(fed.PartialWeighted), LeafParticipants: simPerEdge,
		SampleSum: 1 << 20, Count: simPerEdge, Dim: dim, WeightTotal: 1 << 20, Hi: vec(1), Lo: vec(1e-12),
	}
	var frame []byte
	layer["wire.partial_roundtrip_us"] = nsPerOp(func() {
		var err error
		if frame, err = wire.AppendTrainPartial(frame[:0], part); err != nil {
			panic(err)
		}
		if _, err = wire.ParseTrainPartial(frame); err != nil {
			panic(err)
		}
	}) / 1e3

	// fed: the streaming FedAvg fold over 2,000 updates, and the
	// checkpoint encoder on a mid-run state.
	const clients = 2 * simPerEdge
	pool := make([][]float64, simPool)
	for i := range pool {
		pool[i] = vec(0.1)
	}
	stream := fed.NewStream(fed.MeanAggregator{})
	dst := make([]float64, dim)
	foldNS := nsPerOp(func() {
		stream.Begin(dim, clients)
		for c := 0; c < clients; c++ {
			u := fed.Update{ClientID: "c", Weights: pool[c%simPool], NumSamples: 100 + c%7}
			if err := stream.Add(&u); err != nil {
				panic(err)
			}
		}
		if _, err := stream.Finish(dst); err != nil {
			panic(err)
		}
	})
	layer["fed.aggregate_mb_per_s"] = float64(clients) * mb * 1e9 / foldNS
	cp := &fed.Checkpoint{Seed: seed, Round: 20, Dim: dim, Global: ref, DeltaRefs: map[string]bool{"a": true}}
	for i := 0; i < cp.Round; i++ {
		cp.Rounds = append(cp.Rounds, fed.RoundStat{Round: i, Selected: []string{"edge-0", "edge-1", "station-0", "station-1"},
			Participants: []string{"edge-0", "edge-1", "station-0", "station-1"}, MeanLoss: 0.1, WallSeconds: 0.02})
	}
	var encoded int
	encNS := nsPerOp(func() {
		b, err := fed.EncodeCheckpoint(cp)
		if err != nil {
			panic(err)
		}
		encoded = len(b)
	})
	layer["fed.checkpoint_encode_mb_per_s"] = float64(encoded) / 1e6 * 1e9 / encNS
}
