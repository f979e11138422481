package fed

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/evfed/evfed/internal/chaos"
	"github.com/evfed/evfed/internal/mat"
	"github.com/evfed/evfed/internal/rng"
)

func sampleCheckpoint() *Checkpoint {
	sr := rng.New(11)
	fr := rng.New(12)
	sr.NormFloat64() // leave a spare deviate in the state
	for i := 0; i < 5; i++ {
		fr.Uint64()
	}
	return &Checkpoint{
		Seed:      99,
		Round:     3,
		Dim:       4,
		Global:    []float64{0.25, -1.5, math.Pi, 0},
		SampleRNG: sr.Snapshot(),
		FailRNG:   fr.Snapshot(),
		DeltaRefs: map[string]bool{"sta-a": true, "sta-b": false},
		Rounds: []RoundStat{
			{Round: 0, Selected: []string{"sta-a", "sta-b"}, Participants: []string{"sta-a"},
				Dropped: []string{"sta-b"}, Errors: map[string]string{"sta-b": "unreachable"},
				MeanLoss: 0.5, WallSeconds: 1.25, BytesDown: 100, BytesUp: 90,
				SubtreeBytesDown: 10, SubtreeBytesUp: 5, LeafParticipants: 1, LeafDropped: 1},
			{Round: 1, Participants: []string{"sta-a", "sta-b"}, MeanLoss: 0.25,
				LeafParticipants: 2, HookPanic: "hook exploded"},
			{Round: 2, Participants: []string{"sta-a"}, MeanLoss: 0.125, LeafParticipants: 1},
		},
		ClientSeconds:    12.5,
		BytesDown:        300,
		BytesUp:          270,
		SubtreeBytesDown: 10,
		SubtreeBytesUp:   5,
	}
}

func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	cp := sampleCheckpoint()
	data, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != cp.Seed || got.Round != cp.Round || got.Dim != cp.Dim {
		t.Fatalf("identity mismatch: %+v", got)
	}
	for i := range cp.Global {
		if math.Float64bits(got.Global[i]) != math.Float64bits(cp.Global[i]) {
			t.Fatalf("global[%d]: %v != %v", i, got.Global[i], cp.Global[i])
		}
	}
	if got.SampleRNG != cp.SampleRNG || got.FailRNG != cp.FailRNG {
		t.Fatal("RNG state did not round-trip")
	}
	// Restored streams must continue identically.
	a, b := rng.New(0), rng.New(0)
	a.Restore(cp.SampleRNG)
	b.Restore(got.SampleRNG)
	for i := 0; i < 16; i++ {
		if a.NormFloat64() != b.NormFloat64() {
			t.Fatal("restored RNG streams diverge")
		}
	}
	if len(got.DeltaRefs) != 2 || !got.DeltaRefs["sta-a"] || got.DeltaRefs["sta-b"] {
		t.Fatalf("delta refs: %v", got.DeltaRefs)
	}
	if len(got.Rounds) != 3 {
		t.Fatalf("rounds: %d", len(got.Rounds))
	}
	r0 := got.Rounds[0]
	if r0.Round != 0 || len(r0.Selected) != 2 || r0.Errors["sta-b"] != "unreachable" ||
		r0.BytesDown != 100 || r0.SubtreeBytesUp != 5 || r0.LeafDropped != 1 {
		t.Fatalf("round 0 did not round-trip: %+v", r0)
	}
	if got.Rounds[1].HookPanic != "hook exploded" {
		t.Fatalf("hook panic lost: %+v", got.Rounds[1])
	}
	if got.ClientSeconds != 12.5 || got.BytesDown != 300 || got.SubtreeBytesDown != 10 {
		t.Fatalf("cumulative counters: %+v", got)
	}
}

func TestCheckpointDecodeTypedErrors(t *testing.T) {
	data, err := EncodeCheckpoint(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}

	// Every truncation must yield a typed error, never a panic.
	for n := 0; n < len(data); n++ {
		_, err := DecodeCheckpoint(data[:n])
		if err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
		if !errors.Is(err, ErrCheckpointTruncated) && !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("truncation to %d bytes: untyped error %v", n, err)
		}
	}

	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := DecodeCheckpoint(bad); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}

	skew := append([]byte(nil), data...)
	skew[4] = CheckpointVersion + 1
	if _, err := DecodeCheckpoint(skew); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("version skew: %v", err)
	}

	// Any single flipped payload byte must fail the CRC.
	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0x40
	if _, err := DecodeCheckpoint(flip); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("flipped byte: %v", err)
	}

	long := append(append([]byte(nil), data...), 0xee)
	if _, err := DecodeCheckpoint(long); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("trailing bytes: %v", err)
	}
}

func TestSaveLatestAndPrune(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := LatestCheckpoint(dir); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: %v", err)
	}

	cp := sampleCheckpoint()
	for r := 1; r <= 5; r++ {
		cp.Round = r
		if _, err := SaveCheckpoint(dir, cp); err != nil {
			t.Fatal(err)
		}
		pruneCheckpoints(dir, 3)
	}
	files, err := checkpointFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("retain 3: %d files %v", len(files), files)
	}
	got, path, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 5 || filepath.Base(path) != "ckpt-000005.evck" {
		t.Fatalf("latest: round %d from %s", got.Round, path)
	}

	// Corrupting the newest file falls back to the previous good one.
	if err := os.WriteFile(path, []byte("EVCKgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err = LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 4 {
		t.Fatalf("fallback: round %d", got.Round)
	}

	// No leftover temp files after atomic saves.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 0 {
		t.Fatalf("leftover temp files: %v", tmps)
	}
}

func TestResumeMismatchRejected(t *testing.T) {
	cfg := smallConfig(5)
	cfg.Rounds = 2
	cfg.EpochsPerRound = 1
	cp := sampleCheckpoint()
	cp.Seed = cfg.Seed + 1 // wrong federation
	cfg.Resume = cp
	co, err := NewCoordinator(smallSpec(), makeClients(t, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Run(); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("want ErrCheckpointMismatch, got %v", err)
	}
}

// TestCheckpointResumeParity is the tentpole guarantee: a coordinator
// killed mid-run and resumed from its last durable checkpoint produces a
// bit-identical final global to an uninterrupted run — for both
// aggregation rules, with client sampling active so the RNG state restore
// is load-bearing, and for both crash flavors (before the checkpoint →
// the round replays; after → it does not).
func TestCheckpointResumeParity(t *testing.T) {
	const rounds = 8
	aggs := []struct {
		name string
		agg  Aggregator
	}{{"mean", MeanAggregator{}}, {"uniform", UniformAggregator{}}}
	for _, tc := range aggs {
		t.Run(tc.name, func(t *testing.T) {
			baseCfg := func(dir string) Config {
				cfg := smallConfig(77)
				cfg.Rounds = rounds
				cfg.EpochsPerRound = 1
				cfg.ClientFraction = 0.5
				cfg.Aggregator = tc.agg
				if dir != "" {
					cfg.Checkpoint = CheckpointConfig{Dir: dir, Every: 1}
				}
				return cfg
			}
			coA, err := NewCoordinator(smallSpec(), makeClients(t, 6), baseCfg(""))
			if err != nil {
				t.Fatal(err)
			}
			resA, err := coA.Run()
			if err != nil {
				t.Fatal(err)
			}

			crashes := []struct {
				point     string
				wantRound int // completed rounds in the surviving checkpoint
			}{
				{CrashAfterAggregate, 4},  // round 4 aggregated but not durable → replays
				{CrashAfterCheckpoint, 5}, // round 4 durable → not replayed
			}
			for _, crash := range crashes {
				t.Run(crash.point, func(t *testing.T) {
					dir := t.TempDir()
					cfg := baseCfg(dir)
					cfg.CrashPoint = chaos.CrashOnce(crash.point, 5) // dies during round index 4
					co, err := NewCoordinator(smallSpec(), makeClients(t, 6), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := co.Run(); !errors.Is(err, chaos.ErrCrash) {
						t.Fatalf("want injected crash, got %v", err)
					}

					cp, _, err := LatestCheckpoint(dir)
					if err != nil {
						t.Fatal(err)
					}
					if cp.Round != crash.wantRound {
						t.Fatalf("surviving checkpoint at round %d, want %d", cp.Round, crash.wantRound)
					}

					// A fresh process: new clients, new coordinator, resumed state.
					cfg2 := baseCfg(dir)
					cfg2.Resume = cp
					co2, err := NewCoordinator(smallSpec(), makeClients(t, 6), cfg2)
					if err != nil {
						t.Fatal(err)
					}
					res, err := co2.Run()
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Rounds) != rounds {
						t.Fatalf("resumed history has %d rounds, want %d", len(res.Rounds), rounds)
					}
					for i, rs := range res.Rounds {
						if rs.Round != i {
							t.Fatalf("round history not contiguous at %d: %d", i, rs.Round)
						}
					}
					for i := range res.Global {
						if math.Float64bits(res.Global[i]) != math.Float64bits(resA.Global[i]) {
							t.Fatalf("weight %d differs after resume: %v != %v",
								i, res.Global[i], resA.Global[i])
						}
					}
				})
			}
		})
	}
}

// TestOnRoundPanicRecovered: a faulty rollout/checkpoint hook must not
// kill the coordinator mid-federation — the panic is recovered, recorded
// on the round's stat, and later rounds still reach the hook.
func TestOnRoundPanicRecovered(t *testing.T) {
	cfg := smallConfig(5)
	cfg.Rounds = 3
	cfg.EpochsPerRound = 1
	calls := 0
	cfg.OnRound = func(stat RoundStat, global []float64) {
		calls++
		if stat.Round == 1 {
			panic("hook exploded")
		}
	}
	co, err := NewCoordinator(smallSpec(), makeClients(t, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run()
	if err != nil {
		t.Fatalf("a panicking hook killed the run: %v", err)
	}
	if calls != 3 {
		t.Fatalf("hook called %d times, want 3", calls)
	}
	if res.Rounds[1].HookPanic != "hook exploded" {
		t.Fatalf("round 1 HookPanic = %q", res.Rounds[1].HookPanic)
	}
	if res.Rounds[0].HookPanic != "" || res.Rounds[2].HookPanic != "" {
		t.Fatalf("healthy rounds carry HookPanic: %+v", res.Rounds)
	}
}

// TestNonFiniteUpdateRejected: an update carrying NaN weights is dropped
// as that client's round error instead of poisoning the global.
func TestNonFiniteUpdateRejected(t *testing.T) {
	cfg := smallConfig(5)
	cfg.Rounds = 1
	cfg.EpochsPerRound = 1
	cfg.TolerateClientErrors = true
	clients := makeClients(t, 3)
	poison := &funcClient{id: "poison", train: func(global []float64, _ LocalTrainConfig) (Update, error) {
		w := make([]float64, len(global))
		copy(w, global)
		w[0] = math.NaN()
		return Update{ClientID: "poison", Weights: w, NumSamples: 10, FinalLoss: 0.1}, nil
	}}
	co, err := NewCoordinator(smallSpec(), append(clients, poison), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	rs := res.Rounds[0]
	if len(rs.Participants) != 3 || len(rs.Dropped) != 1 {
		t.Fatalf("participants %v dropped %v", rs.Participants, rs.Dropped)
	}
	if rs.Errors["poison"] == "" {
		t.Fatalf("no recorded error for the poisoned client: %v", rs.Errors)
	}
	for i, v := range res.Global {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("global[%d] is non-finite: %v", i, v)
		}
	}

	// Without tolerance the same update is fatal and typed.
	cfg.TolerateClientErrors = false
	co2, err := NewCoordinator(smallSpec(), append(makeClients(t, 3), poison), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co2.Run(); !errors.Is(err, ErrNonFiniteUpdate) {
		t.Fatalf("want ErrNonFiniteUpdate, got %v", err)
	}
}

// TestNonFinitePartialRejected: an edge's partial carrying a NaN/Inf — in
// either word of a folded FedAvg sum or its weight total, or in a held
// update under the median — drops that edge as its round error instead
// of poisoning the global.
func TestNonFinitePartialRejected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		agg    Aggregator
		poison func(*Partial)
	}{
		{"fedavg-sum", MeanAggregator{}, func(p *Partial) { p.AccHi[0] = math.Inf(1) }},
		{"fedavg-compensation", MeanAggregator{}, func(p *Partial) { p.AccLo[3] = math.NaN() }},
		{"fedavg-weight-total", MeanAggregator{}, func(p *Partial) { p.WeightTotal = math.NaN() }},
		{"median-held", MedianAggregator{}, func(p *Partial) { p.Held[len(p.Held)-1][5] = math.Inf(-1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(tolerate bool) (*RunResult, error) {
				cfg := smallConfig(5)
				cfg.Rounds = 1
				cfg.EpochsPerRound = 1
				cfg.Aggregator = tc.agg
				cfg.TolerateClientErrors = tolerate
				clients := makeClients(t, 5)
				edge, err := NewEdge("poison-edge", clients[2:], DefaultEdgeConfig())
				if err != nil {
					t.Fatal(err)
				}
				peers := []ClientHandle{clients[0], clients[1], &poisonEdge{Edge: edge, poison: tc.poison}}
				co, err := NewCoordinator(smallSpec(), peers, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return co.Run()
			}
			res, err := run(true)
			if err != nil {
				t.Fatal(err)
			}
			rs := res.Rounds[0]
			if len(rs.Participants) != 2 || len(rs.Dropped) != 1 || rs.Errors["poison-edge"] == "" {
				t.Fatalf("participants %v dropped %v errors %v", rs.Participants, rs.Dropped, rs.Errors)
			}
			if j := mat.FirstNonFinite(res.Global); j >= 0 {
				t.Fatalf("global[%d] is non-finite: %v", j, res.Global[j])
			}

			// Without tolerance the same partial is fatal and typed.
			if _, err := run(false); !errors.Is(err, ErrNonFiniteUpdate) {
				t.Fatalf("want ErrNonFiniteUpdate, got %v", err)
			}
		})
	}
}

// poisonEdge is an in-process edge whose partials are corrupted after the
// fold, as bytes flipped on its uplink would be.
type poisonEdge struct {
	*Edge
	poison func(*Partial)
}

func (e *poisonEdge) TrainPartial(global []float64, cfg LocalTrainConfig) (Partial, error) {
	p, err := e.Edge.TrainPartial(global, cfg)
	if err == nil {
		e.poison(&p)
	}
	return p, err
}

// funcClient is a minimal ClientHandle for injecting hostile updates.
type funcClient struct {
	id    string
	train func([]float64, LocalTrainConfig) (Update, error)
}

func (f *funcClient) ID() string               { return f.id }
func (f *funcClient) NumSamples() (int, error) { return 10, nil }
func (f *funcClient) Train(global []float64, cfg LocalTrainConfig) (Update, error) {
	return f.train(global, cfg)
}
