package fed

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/evfed/evfed/internal/nn"
	"github.com/evfed/evfed/internal/rng"
)

// clientSeries builds a small periodic series with a client-specific phase
// (spatial heterogeneity in miniature).
func clientSeries(n int, phase float64, seed uint64) []float64 {
	r := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.5 + 0.3*math.Sin(2*math.Pi*float64(i)/12+phase) + r.Normal(0, 0.02)
	}
	return out
}

func smallSpec() nn.Spec { return nn.ForecasterSpec(8, 4) }

func smallConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Rounds = 2
	cfg.EpochsPerRound = 3
	return cfg
}

func makeClients(t *testing.T, n int) []ClientHandle {
	t.Helper()
	out := make([]ClientHandle, n)
	for i := 0; i < n; i++ {
		c, err := NewClient(
			string(rune('A'+i)),
			smallSpec(),
			clientSeries(150, float64(i), uint64(i+1)),
			12,
			uint64(100+i),
		)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = c
	}
	return out
}

func TestFedAvgWeighted(t *testing.T) {
	updates := []Update{
		{ClientID: "a", Weights: []float64{1, 2}, NumSamples: 1},
		{ClientID: "b", Weights: []float64{3, 6}, NumSamples: 3},
	}
	avg, err := FedAvg(updates)
	if err != nil {
		t.Fatal(err)
	}
	// (1*1 + 3*3)/4 = 2.5 ; (2*1 + 6*3)/4 = 5
	if math.Abs(avg[0]-2.5) > 1e-12 || math.Abs(avg[1]-5) > 1e-12 {
		t.Fatalf("avg %v", avg)
	}
}

func TestFedAvgErrors(t *testing.T) {
	if _, err := FedAvg(nil); !errors.Is(err, ErrNoClients) {
		t.Fatalf("want ErrNoClients, got %v", err)
	}
	bad := []Update{
		{ClientID: "a", Weights: []float64{1}, NumSamples: 1},
		{ClientID: "b", Weights: []float64{1, 2}, NumSamples: 1},
	}
	if _, err := FedAvg(bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
	zero := []Update{{ClientID: "a", Weights: []float64{1}, NumSamples: 0}}
	if _, err := FedAvg(zero); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
}

// FedAvg invariants: idempotent on identical updates; output within the
// convex hull of inputs.
func TestFedAvgProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		dim := 1 + r.Intn(20)
		nClients := 1 + r.Intn(5)
		updates := make([]Update, nClients)
		for c := range updates {
			w := make([]float64, dim)
			for i := range w {
				w[i] = r.Normal(0, 1)
			}
			updates[c] = Update{ClientID: "x", Weights: w, NumSamples: 1 + r.Intn(100)}
		}
		avg, err := FedAvg(updates)
		if err != nil {
			return false
		}
		for i := 0; i < dim; i++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, u := range updates {
				lo = math.Min(lo, u.Weights[i])
				hi = math.Max(hi, u.Weights[i])
			}
			if avg[i] < lo-1e-9 || avg[i] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatorRun(t *testing.T) {
	clients := makeClients(t, 3)
	co, err := NewCoordinator(smallSpec(), clients, smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 2 {
		t.Fatalf("rounds %d", len(res.Rounds))
	}
	for _, rs := range res.Rounds {
		if len(rs.Participants) != 3 {
			t.Fatalf("round %d participants %v", rs.Round, rs.Participants)
		}
		if rs.MeanLoss <= 0 || math.IsNaN(rs.MeanLoss) {
			t.Fatalf("round %d mean loss %v", rs.Round, rs.MeanLoss)
		}
	}
	// Loss decreases across rounds on a learnable task.
	if res.Rounds[1].MeanLoss >= res.Rounds[0].MeanLoss {
		t.Fatalf("federated loss did not decrease: %v -> %v",
			res.Rounds[0].MeanLoss, res.Rounds[1].MeanLoss)
	}
	m, err := co.GlobalModel(res)
	if err != nil {
		t.Fatal(err)
	}
	got := m.WeightsVector()
	for i := range got {
		if got[i] != res.Global[i] {
			t.Fatal("GlobalModel weights differ from result")
		}
	}
}

func TestCoordinatorDeterministicSequential(t *testing.T) {
	run := func() []float64 {
		clients := makeClients(t, 2)
		cfg := smallConfig(9)
		cfg.Parallel = false
		cfg.WorkersPerClient = 2
		co, err := NewCoordinator(smallSpec(), clients, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := co.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Global
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("federated run not reproducible at weight %d", i)
		}
	}
}

func TestCoordinatorParallelMatchesSequential(t *testing.T) {
	run := func(parallel bool) []float64 {
		clients := makeClients(t, 3)
		cfg := smallConfig(11)
		cfg.Parallel = parallel
		cfg.WorkersPerClient = 1
		co, err := NewCoordinator(smallSpec(), clients, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := co.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Global
	}
	seq := run(false)
	par := run(true)
	// Aggregation order is fixed by client index, so parallel scheduling
	// must not change the result at all.
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("parallel run diverges from sequential at %d", i)
		}
	}
}

func TestCoordinatorValidation(t *testing.T) {
	clients := makeClients(t, 1)
	if _, err := NewCoordinator(smallSpec(), nil, smallConfig(1)); !errors.Is(err, ErrNoClients) {
		t.Fatalf("want ErrNoClients, got %v", err)
	}
	bad := smallConfig(1)
	bad.Rounds = 0
	if _, err := NewCoordinator(smallSpec(), clients, bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
	bad2 := smallConfig(1)
	bad2.Failures = &FailurePlan{DropoutProb: 1}
	if _, err := NewCoordinator(smallSpec(), clients, bad2); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
}

func TestCoordinatorSurvivesDropouts(t *testing.T) {
	clients := makeClients(t, 4)
	cfg := smallConfig(13)
	cfg.Rounds = 4
	cfg.Failures = &FailurePlan{DropoutProb: 0.4}
	co, err := NewCoordinator(smallSpec(), clients, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, rs := range res.Rounds {
		dropped += len(rs.Dropped)
		if len(rs.Participants)+len(rs.Dropped) != 4 {
			t.Fatalf("round %d accounting: %d + %d != 4",
				rs.Round, len(rs.Participants), len(rs.Dropped))
		}
	}
	if dropped == 0 {
		t.Fatal("failure plan injected no dropouts (seed-dependent; adjust seed)")
	}
	if len(res.Global) == 0 {
		t.Fatal("no global weights produced")
	}
}

func TestClientRejectsBadWeights(t *testing.T) {
	c, err := NewClient("x", smallSpec(), clientSeries(100, 0, 1), 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Train([]float64{1, 2, 3}, LocalTrainConfig{Epochs: 1, BatchSize: 8, LearningRate: 0.01})
	if !errors.Is(err, nn.ErrShape) {
		t.Fatalf("want nn.ErrShape, got %v", err)
	}
}

func TestNewClientTooShort(t *testing.T) {
	if _, err := NewClient("x", smallSpec(), make([]float64, 5), 12, 1); err == nil {
		t.Fatal("short series should error")
	}
}

func TestFederatedBeatsIsolatedOnSharedStructure(t *testing.T) {
	// Three clients share the same periodic process with small phase
	// offsets; federated averaging should produce a global model that
	// predicts a held-out client series better than an untrained model.
	clients := makeClients(t, 3)
	cfg := smallConfig(17)
	cfg.Rounds = 3
	co, err := NewCoordinator(smallSpec(), clients, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	m, err := co.GlobalModel(res)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := nn.Build(smallSpec(), 999)
	if err != nil {
		t.Fatal(err)
	}
	test := clientSeries(100, 0.5, 55)
	evalMSE := func(model *nn.Model) float64 {
		var sum float64
		n := 0
		for i := 12; i < len(test); i++ {
			in := make(nn.Seq, 12)
			for k := 0; k < 12; k++ {
				in[k] = []float64{test[i-12+k]}
			}
			p := model.Predict(in)
			d := p[0][0] - test[i]
			sum += d * d
			n++
		}
		return sum / float64(n)
	}
	if evalMSE(m) >= evalMSE(fresh) {
		t.Fatalf("federated model (%v) no better than untrained (%v)", evalMSE(m), evalMSE(fresh))
	}
}

// TestClientTrainWarmRoundAllocations pins the client's buffer reuse:
// after its first round, a Train call allocates nothing that grows with
// the model except the weight vector it returns. The gradient sets,
// workspace arenas, optimizer moments and proximal reference all carry
// over, so a warm round's bytes beyond that vector stay under a budget
// far below one more model-sized buffer. The allocation counter is
// process-wide, so the fewest bytes over three warm rounds is what must
// fit. Every round's update must still equal, bit for bit, what a
// freshly built client returns for it.
func TestClientTrainWarmRoundAllocations(t *testing.T) {
	spec := nn.ForecasterSpec(50, 10)
	values := clientSeries(60, 0, 91)
	c, err := NewClient("warm", spec, values, 12, 91)
	if err != nil {
		t.Fatal(err)
	}
	global := c.Model().WeightsVector()
	vecBytes := uint64(8 * len(global))
	for _, workers := range []int{1, 2} {
		least := uint64(math.MaxUint64)
		for round := 0; round < 4; round++ {
			cfg := LocalTrainConfig{Epochs: 2, BatchSize: 32, LearningRate: 1e-3, Workers: workers,
				Round: round, ProximalMu: 0.01, Codec: CodecQ8}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			u, err := c.Train(global, cfg)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			fresh, err := NewClient("warm", spec, values, 12, 91)
			if err != nil {
				t.Fatal(err)
			}
			uf, err := fresh.Train(global, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range u.Weights {
				if math.Float64bits(u.Weights[i]) != math.Float64bits(uf.Weights[i]) {
					t.Fatalf("workers=%d round %d: weight %d is %v, a fresh client's %v",
						workers, round, i, u.Weights[i], uf.Weights[i])
				}
			}
			if math.Float64bits(u.FinalLoss) != math.Float64bits(uf.FinalLoss) {
				t.Fatalf("workers=%d round %d: loss %v, a fresh client's %v", workers, round, u.FinalLoss, uf.FinalLoss)
			}
			global = u.Weights
			if round > 0 { // the first round of a worker count sizes the buffers
				least = min(least, after.TotalAlloc-before.TotalAlloc-vecBytes)
			}
		}
		if least > vecBytes/4 {
			t.Fatalf("workers=%d: a warm Train allocated at least %d bytes beyond its %d-byte update",
				workers, least, vecBytes)
		}
	}
}
