package nn

import (
	"sync"
	"testing"

	"github.com/evfed/evfed/internal/rng"
)

// wsTestModel builds the paper's autoencoder shape (every layer kind:
// LSTM, Dropout, RepeatVector, Dense) so one model exercises the whole
// workspace surface.
func wsTestModel(t testing.TB, dropout float64) *Model {
	t.Helper()
	m, err := Build(AutoencoderSpec(6, 8, 4, dropout), 21)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWorkspaceBitIdentical proves the arena is purely a memory
// optimization: forward outputs, parameter gradients and the loss with a
// workspace are bit-for-bit those of the allocate-per-call path.
func TestWorkspaceBitIdentical(t *testing.T) {
	m := wsTestModel(t, 0.2)
	r := rng.New(5)
	xs := randSeqs(r, 3, 6, 1)
	ys := randSeqs(r, 3, 6, 1)

	run := func(ws *Workspace, seed uint64) (*BatchSeq, *GradSet, float64) {
		rngs := make([]*rng.Source, len(xs))
		for i := range rngs {
			rngs[i] = rng.New(seed + uint64(i))
		}
		ctx := Context{Train: true, WS: ws, BatchRNGs: rngs}
		gs := m.NewGradSet()
		out, l := trainPass(m, &ctx, xs, ys, MSE{}, gs)
		return out, gs, l
	}

	ws := NewWorkspace()
	// Two workspace passes (second reuses warm buffers) against the
	// allocation path, with identical dropout streams.
	for pass := 0; pass < 2; pass++ {
		outWS, gsWS, lWS := run(ws, 77)
		outAlloc, gsAlloc, lAlloc := run(nil, 77)
		if lWS != lAlloc {
			t.Fatalf("pass %d: loss %v vs %v", pass, lWS, lAlloc)
		}
		for b := range xs {
			seqsWithin(t, "output", sampleView(nil, outWS, b), sampleView(nil, outAlloc, b), 0)
		}
		gradSetsWithin(t, gsWS, gsAlloc, 0)
	}
}

// TestSteadyStateZeroAlloc is the acceptance guard for the arena: after
// warm-up, a full forward+backward training pass (LSTM model and the
// complete autoencoder) and a batch-of-one prediction allocate nothing.
func TestSteadyStateZeroAlloc(t *testing.T) {
	r := rng.New(7)
	lstm, err := NewLSTM(1, 50, false, r)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewModel(lstm)
	xs := []Seq{randSeq(r, 24, 1)}
	ys := []Seq{randSeq(r, 1, 50)}
	gs := m.NewGradSet()
	loss := MSE{}
	ctx := Context{Train: true, WS: NewWorkspace()}
	step := func() { trainPass(m, &ctx, xs, ys, loss, gs) }
	step() // warm up the arena
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Fatalf("LSTM forward+backward pass allocates %v times in steady state", n)
	}

	ae := wsTestModel(t, 0) // dropout 0: RNG-free training pass
	aeXs := []Seq{randSeq(r, 6, 1)}
	aeGS := ae.NewGradSet()
	aeCtx := Context{Train: true, WS: NewWorkspace()}
	aeStep := func() { trainPass(ae, &aeCtx, aeXs, aeXs, loss, aeGS) }
	aeStep()
	if n := testing.AllocsPerRun(20, aeStep); n != 0 {
		t.Fatalf("autoencoder pass allocates %v times in steady state", n)
	}

	predWS := NewWorkspace()
	ae.PredictBatchWS(aeXs, predWS)
	if n := testing.AllocsPerRun(20, func() { ae.PredictBatchWS(aeXs, predWS) }); n != 0 {
		t.Fatalf("batch-of-one PredictBatchWS allocates %v times in steady state", n)
	}
}

// TestConcurrentFitIsolated runs two Fit calls on separate models
// concurrently (run under -race in CI): gradPool workspaces must never be
// shared across trainers, and each result must equal its serial baseline.
func TestConcurrentFitIsolated(t *testing.T) {
	build := func() (*Model, []Seq, []Seq, TrainConfig) {
		m, err := Build(ForecasterSpec(6, 4), 41)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(42)
		n := 24
		inputs := make([]Seq, n)
		targets := make([]Seq, n)
		for i := range inputs {
			inputs[i] = randSeq(r, 8, 1)
			targets[i] = randSeq(r, 1, 1)
		}
		cfg := DefaultTrainConfig(2, 43)
		cfg.BatchSize = 8
		cfg.Workers = 2
		return m, inputs, targets, cfg
	}

	// Serial baseline.
	mRef, in, tg, cfg := build()
	histRef, err := Fit(mRef, in, tg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := mRef.WeightsVector()

	var wg sync.WaitGroup
	results := make([][]float64, 2)
	hists := make([]History, 2)
	for g := 0; g < 2; g++ {
		mG, inG, tgG, cfgG := build()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h, err := Fit(mG, inG, tgG, cfgG)
			if err != nil {
				t.Error(err)
				return
			}
			hists[g] = h
			results[g] = mG.WeightsVector()
		}(g)
	}
	wg.Wait()

	for g := 0; g < 2; g++ {
		if len(results[g]) != len(ref) {
			t.Fatalf("goroutine %d: weight count %d vs %d", g, len(results[g]), len(ref))
		}
		for i := range ref {
			if results[g][i] != ref[i] {
				t.Fatalf("goroutine %d: weight %d diverged: %v vs %v (buffer sharing?)",
					g, i, results[g][i], ref[i])
			}
		}
		if hists[g].FinalTrainLoss() != histRef.FinalTrainLoss() {
			t.Fatalf("goroutine %d: loss %v vs %v", g, hists[g].FinalTrainLoss(), histRef.FinalTrainLoss())
		}
	}
}

// TestWorkspaceShapePolymorphism reuses one workspace across models of
// different shapes — the arena must key buffers by shape, not assume one.
func TestWorkspaceShapePolymorphism(t *testing.T) {
	r := rng.New(9)
	ws := NewWorkspace()
	loss := MSE{}
	for _, units := range []int{3, 7, 12} {
		l, err := NewLSTM(2, units, true, r)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := NewModel(l)
		gs := m.NewGradSet()
		xs := randSeqs(r, 2, 5, 2)
		ys := randSeqs(r, 2, 5, units)
		ctx := Context{Train: true, WS: ws}
		for i := 0; i < 2; i++ {
			trainPass(m, &ctx, xs, ys, loss, gs)
		}
		// Cross-check against the allocate-per-call path.
		gsA := m.NewGradSet()
		gradBatch(m, xs, ys, loss, gsA)
		gs.Zero()
		trainPass(m, &ctx, xs, ys, loss, gs)
		gradSetsWithin(t, gs, gsA, 0)
	}
}
