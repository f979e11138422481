package eval

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/evfed/evfed/internal/fed"
	"github.com/evfed/evfed/internal/nn"
	"github.com/evfed/evfed/internal/rng"
)

func TestScalabilityHierParityAndTraffic(t *testing.T) {
	points, err := RunScalabilityHier([]int{60, 240}, HierSweepParams{
		Rounds: 2,
		Edges:  4,
		Seed:   17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("want 2 points, got %d", len(points))
	}
	for _, pt := range points {
		if pt.Edges != 4 {
			t.Fatalf("%d stations: want 4 edges, got %d", pt.Stations, pt.Edges)
		}
		// The compensated partial fold keeps the hierarchy's global model
		// exactly on the flat federation's.
		if pt.MaxAbsDiff != 0 {
			t.Fatalf("%d stations: hierarchy diverged from flat by %g", pt.Stations, pt.MaxAbsDiff)
		}
		// The root's own links shrink from O(stations) to O(edges)...
		if pt.HierRootBytesPerRound >= pt.FlatRootBytesPerRound/8 {
			t.Fatalf("%d stations: root traffic barely shrank: flat %d B/r, hier %d B/r",
				pt.Stations, pt.FlatRootBytesPerRound, pt.HierRootBytesPerRound)
		}
		// ...while the station traffic moves into the subtrees rather than
		// disappearing.
		if pt.HierSubtreeBytesPerRound == 0 {
			t.Fatalf("%d stations: subtree traffic not accounted", pt.Stations)
		}
	}
	// Root traffic must scale with edge count, not station count: 4x the
	// stations over the same 4 edges leaves root bytes unchanged.
	if points[0].HierRootBytesPerRound != points[1].HierRootBytesPerRound {
		t.Fatalf("root traffic grew with station count: %d vs %d",
			points[0].HierRootBytesPerRound, points[1].HierRootBytesPerRound)
	}

	table := FormatScalabilityHier(points)
	for _, want := range []string{"Stations", "Edges", "Max |dw|", "240"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

func TestScalabilityHierDefaultsAndValidation(t *testing.T) {
	if _, err := RunScalabilityHier([]int{0}, HierSweepParams{}); err == nil {
		t.Fatal("zero station count must fail")
	}
	points, err := RunScalabilityHier([]int{16}, HierSweepParams{Rounds: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Edges != 4 { // default fan-out: ceil(sqrt(16))
		t.Fatalf("default edge count = %d, want 4", points[0].Edges)
	}
}

// TestScalabilityHier10kStations is the tentpole's O(10k) acceptance
// sweep: a 10,000-station 2-tier federation must complete, match the flat
// run exactly, and keep the root's per-round traffic at edge scale. The
// CI smoke job runs this under a tight timeout.
func TestScalabilityHier10kStations(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-station sweep skipped in -short; covered by the scalability CI smoke")
	}
	start := time.Now()
	points, err := RunScalabilityHier([]int{10000}, HierSweepParams{
		Rounds: 2,
		Edges:  100,
		Seed:   23,
	})
	if err != nil {
		t.Fatal(err)
	}
	pt := points[0]
	if pt.Stations != 10000 || pt.Edges != 100 {
		t.Fatalf("unexpected topology: %+v", pt)
	}
	if pt.MaxAbsDiff != 0 {
		t.Fatalf("10k-station hierarchy diverged from flat by %g", pt.MaxAbsDiff)
	}
	if pt.HierRootBytesPerRound >= pt.FlatRootBytesPerRound/50 {
		t.Fatalf("root traffic: flat %d B/r vs hier %d B/r — want ~100x collapse",
			pt.FlatRootBytesPerRound, pt.HierRootBytesPerRound)
	}
	t.Logf("10k stations over 100 edges in %.2fs:\n%s", time.Since(start).Seconds(),
		FormatScalabilityHier(points))
}

// simStation is a synthetic leaf for topology sweeps: it answers Train
// with a deterministic pseudo-update drawn from (id seed, round) alone.
// Because the update ignores the broadcast weights, a flat federation and
// any hierarchical regrouping of the same stations see identical update
// streams — which is exactly what lets the sweep measure topology cost
// and verify aggregation parity at sizes where real LSTM training would
// dominate the clock.
type simStation struct {
	id      string
	dim     int
	samples int
	seed    uint64
	delay   time.Duration
}

var (
	_ fed.ClientHandle = (*simStation)(nil)
	_ fed.Prober       = (*simStation)(nil)
)

func (s *simStation) ID() string               { return s.id }
func (s *simStation) NumSamples() (int, error) { return s.samples, nil }

func (s *simStation) Hello() (fed.HelloInfo, error) {
	return fed.HelloInfo{StationID: s.id, ModelDim: s.dim, NumSamples: s.samples}, nil
}

func (s *simStation) Train(global []float64, cfg fed.LocalTrainConfig) (fed.Update, error) {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	r := rng.New(s.seed ^ (uint64(cfg.Round)+1)*0x9e3779b97f4a7c15)
	w := make([]float64, s.dim)
	for i := range w {
		w[i] = r.Normal(0, 0.1)
	}
	return fed.Update{
		ClientID:     s.id,
		Weights:      w,
		NumSamples:   s.samples,
		TrainSeconds: s.delay.Seconds(),
		FinalLoss:    1 / float64(cfg.Round+1),
	}, nil
}

// HierSweepParams tunes the flat-vs-hierarchical topology sweep.
type HierSweepParams struct {
	// Rounds per federation (default 2).
	Rounds int
	// Edges is the number of regional aggregators in the 2-tier variant
	// (default: ~sqrt(stations), the fan-out-balancing choice).
	Edges int
	// Seed drives the stations' pseudo-updates.
	Seed uint64
	// StationDelay simulates per-station local training time, letting the
	// sweep model straggler behaviour without burning real compute.
	StationDelay time.Duration
	// MaxConcurrentClients bounds the flat coordinator's and each edge's
	// training fan-out. 0 = unbounded.
	MaxConcurrentClients int
}

// HierScalabilityPoint is one station-count measurement comparing a flat
// single-coordinator federation against the same stations behind a 2-tier
// edge hierarchy.
type HierScalabilityPoint struct {
	Stations int
	Edges    int
	// Wall clock for the full federation, per topology.
	FlatWallSeconds float64
	HierWallSeconds float64
	// Modeled wire traffic per round on the ROOT's own links: a flat root
	// talks to every station, a hierarchical root only to its edges. The
	// station traffic moves into the subtree total, spread across edges.
	FlatRootBytesPerRound    uint64
	HierRootBytesPerRound    uint64
	HierSubtreeBytesPerRound uint64
	// MaxAbsDiff is the largest per-coordinate difference between the two
	// topologies' final global models — the parity the compensated
	// partial-aggregate fold is designed to keep at zero.
	MaxAbsDiff float64
}

func (p *HierSweepParams) fill(stations int) HierSweepParams {
	q := *p
	if q.Rounds == 0 {
		q.Rounds = 2
	}
	if q.Edges == 0 {
		q.Edges = int(math.Ceil(math.Sqrt(float64(stations))))
	}
	return q
}

// RunScalabilityHier sweeps station counts over flat and 2-tier simulated
// topologies. It validates the hierarchy's two claims at each size: the
// root's per-round traffic collapses from O(stations) to O(edges), and
// the aggregated global model matches the flat federation's exactly.
func RunScalabilityHier(stationCounts []int, params HierSweepParams) ([]HierScalabilityPoint, error) {
	spec := nn.ForecasterSpec(8, 4)
	model, err := nn.Build(spec, 1)
	if err != nil {
		return nil, err
	}
	dim := model.NumParams()

	out := make([]HierScalabilityPoint, 0, len(stationCounts))
	for _, n := range stationCounts {
		if n <= 0 {
			return nil, fmt.Errorf("%w: station count %d", ErrBadParams, n)
		}
		p := params.fill(n)
		if p.Edges < 0 || p.Edges > n {
			return nil, fmt.Errorf("%w: %d edges over %d stations", ErrBadParams, p.Edges, n)
		}

		stations := func() []fed.ClientHandle {
			hs := make([]fed.ClientHandle, n)
			for i := range hs {
				hs[i] = &simStation{
					id:      fmt.Sprintf("st-%05d", i),
					dim:     dim,
					samples: 50 + i%200,
					seed:    p.Seed + uint64(i)*1000003,
					delay:   p.StationDelay,
				}
			}
			return hs
		}
		runCfg := fed.DefaultConfig(p.Seed)
		runCfg.Rounds = p.Rounds
		runCfg.EpochsPerRound = 1 // simStations ignore training params
		runCfg.MaxConcurrentClients = p.MaxConcurrentClients

		flat, err := runTopology(spec, stations(), runCfg)
		if err != nil {
			return nil, fmt.Errorf("flat %d stations: %w", n, err)
		}

		hs := stations()
		per := (n + p.Edges - 1) / p.Edges
		edges := make([]fed.ClientHandle, 0, p.Edges)
		for e := 0; e < p.Edges; e++ {
			lo, hi := e*per, (e+1)*per
			if hi > n {
				hi = n
			}
			if lo >= hi {
				break
			}
			edge, err := fed.NewEdge(fmt.Sprintf("edge-%04d", e), hs[lo:hi], fed.EdgeConfig{
				Parallel:             true,
				MaxConcurrentClients: p.MaxConcurrentClients,
				Seed:                 p.Seed + uint64(e),
			})
			if err != nil {
				return nil, err
			}
			edges = append(edges, edge)
		}
		hier, err := runTopology(spec, edges, runCfg)
		if err != nil {
			return nil, fmt.Errorf("hier %d stations over %d edges: %w", n, len(edges), err)
		}

		var maxDiff float64
		for i := range flat.Global {
			maxDiff = math.Max(maxDiff, math.Abs(flat.Global[i]-hier.Global[i]))
		}
		rounds := uint64(p.Rounds)
		out = append(out, HierScalabilityPoint{
			Stations:                 n,
			Edges:                    len(edges),
			FlatWallSeconds:          flat.WallSeconds,
			HierWallSeconds:          hier.WallSeconds,
			FlatRootBytesPerRound:    (flat.BytesDown + flat.BytesUp) / rounds,
			HierRootBytesPerRound:    (hier.BytesDown + hier.BytesUp) / rounds,
			HierSubtreeBytesPerRound: (hier.SubtreeBytesDown + hier.SubtreeBytesUp) / rounds,
			MaxAbsDiff:               maxDiff,
		})
	}
	return out, nil
}

func runTopology(spec nn.Spec, handles []fed.ClientHandle, cfg fed.Config) (*fed.RunResult, error) {
	co, err := fed.NewCoordinator(spec, handles, cfg)
	if err != nil {
		return nil, err
	}
	return co.Run()
}

// FormatScalabilityHier renders the topology sweep as a table.
func FormatScalabilityHier(points []HierScalabilityPoint) string {
	out := "Hierarchical scalability: flat vs 2-tier edge topology (simulated stations)\n"
	out += fmt.Sprintf("%-9s %6s %12s %12s %14s %14s %16s %10s\n",
		"Stations", "Edges", "Flat wall(s)", "Hier wall(s)",
		"Flat root B/r", "Hier root B/r", "Subtree B/r", "Max |dw|")
	for _, pt := range points {
		out += fmt.Sprintf("%-9d %6d %12.3f %12.3f %14d %14d %16d %10.2e\n",
			pt.Stations, pt.Edges, pt.FlatWallSeconds, pt.HierWallSeconds,
			pt.FlatRootBytesPerRound, pt.HierRootBytesPerRound,
			pt.HierSubtreeBytesPerRound, pt.MaxAbsDiff)
	}
	return out
}
