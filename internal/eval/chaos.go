package eval

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/evfed/evfed/internal/anomaly"
	"github.com/evfed/evfed/internal/autoencoder"
	"github.com/evfed/evfed/internal/chaos"
	"github.com/evfed/evfed/internal/fed"
	"github.com/evfed/evfed/internal/mat"
	"github.com/evfed/evfed/internal/nn"
	"github.com/evfed/evfed/internal/rng"
	"github.com/evfed/evfed/internal/serve"
)

// Chaos-recovery matrix: every fault class the crash-safety work defends
// against, exercised end-to-end over real TCP federations and the real
// serving tier, each arm scored against a fault-free control of the same
// topology. The arms and their recovery guarantees:
//
//	conn-drop          injected connection kills; the retry ladder + redial
//	                   heal losslessly → bit-identical global, zero drops
//	stall              injected per-op stalls below the IO deadline; rounds
//	                   slow down but nothing drops → bit-identical global
//	corrupt            injected byte flips on station links; framing errors
//	                   retry and the non-finite guard bounds silent damage
//	                   → run completes with a finite global
//	coordinator-crash  CrashOnce kills the coordinator mid-run; a fresh
//	                   coordinator resumes from the latest durable
//	                   checkpoint → bit-identical global, swept over
//	                   checkpoint cadences
//	server-restart     the scoring service is killed between verdicts and
//	                   rebuilt from its atomic snapshot → post-warmup
//	                   verdicts bit-identical, warmup loss ≤ one window
type chaosScenario string

const (
	chaosBaseline    chaosScenario = "baseline"
	chaosConnDrop    chaosScenario = "conn-drop"
	chaosStall       chaosScenario = "stall"
	chaosCorrupt     chaosScenario = "corrupt"
	chaosCoordCrash  chaosScenario = "coordinator-crash"
	chaosServeReboot chaosScenario = "server-restart"
)

// ChaosParams tunes the chaos-recovery sweep.
type ChaosParams struct {
	// Rounds per federation (default 4).
	Rounds int
	// Seed drives the synthetic feeds, the federation, and every fault
	// injector; the whole matrix is deterministic per seed.
	Seed uint64
	// CheckpointEvery lists the checkpoint cadences swept by the
	// coordinator-crash arms (default {1, 2}).
	CheckpointEvery []int
	// Dir is scratch space for checkpoints and snapshots; a temp dir is
	// created (and removed) when empty.
	Dir string
}

func (p *ChaosParams) fill() ChaosParams {
	q := *p
	if q.Rounds == 0 {
		q.Rounds = 4
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	if len(q.CheckpointEvery) == 0 {
		q.CheckpointEvery = []int{1, 2}
	}
	return q
}

// ChaosRecoveryPoint is one arm of the fault matrix.
type ChaosRecoveryPoint struct {
	Scenario string
	// Topology is "flat" (root → 4 stations), "2-tier" (root → 2 edges ×
	// 2 stations), or "serve" for the scoring-tier arm.
	Topology string
	// CheckpointEvery is the cadence under test (coordinator-crash arms
	// only; 0 elsewhere).
	CheckpointEvery int
	// Rounds completed, including any replayed after a resume.
	Rounds int
	// Dropped counts dropped participations across all rounds.
	Dropped int
	// Faults is the number of injected faults (drops + stalls + corrupt
	// operations) the arm absorbed.
	Faults int
	// WallSeconds covers the whole arm, including crash detection and
	// recovery.
	WallSeconds float64
	// MaxAbsDiff is the largest per-coordinate difference against the
	// fault-free control (for server-restart: the largest post-warmup
	// verdict score difference).
	MaxAbsDiff float64
	// VerdictWarmupLoss counts verdicts lost to stream-window warmup
	// after a server restart (server-restart arm only).
	VerdictWarmupLoss int
	// WithinTolerance applies the scenario's recovery guarantee.
	WithinTolerance bool
}

// chaosSeries synthesizes a per-station scaled charging feed.
func chaosSeries(n int, phase float64, seed uint64) []float64 {
	r := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.5 + 0.35*math.Sin(2*math.Pi*(float64(i)/24+phase)) + 0.05*r.NormFloat64()
	}
	return out
}

const (
	chaosSeqLen   = 8
	chaosStations = 4
	chaosEdges    = 2
)

func chaosSpec() nn.Spec { return nn.ForecasterSpec(4, 2) }

// chaosCluster is a running TCP federation tier: leaf stations, or edge
// aggregators fronting in-process stations. The coordinator side
// (RemoteClient handles) is built separately so crash arms can throw the
// handles away and re-dial, the way a restarted coordinator process does.
type chaosCluster struct {
	topology string
	peers    []struct {
		id, addr string
		edge     bool
	}
	stops []func()
}

func buildChaosCluster(topology string, inj *chaos.Injector, seed uint64) (*chaosCluster, error) {
	var wrap func(conn net.Conn) net.Conn
	if inj != nil {
		wrap = inj.ConnWrapper()
	}
	// RequestTimeout reaps station connections stuck mid-frame (a
	// corrupted length field can leave a reader waiting for bytes that
	// never come); the coordinator's retry ladder re-dials past the reap.
	scfg := fed.ServerConfig{WrapConn: wrap, RequestTimeout: 5 * time.Second}
	c := &chaosCluster{topology: topology}
	spec := chaosSpec()
	station := func(i int) (*fed.Client, error) {
		return fed.NewClient(fmt.Sprintf("st-%d", i), spec,
			chaosSeries(96, float64(i)*0.2, seed+uint64(i)*1000003), chaosSeqLen, seed+uint64(i))
	}
	switch topology {
	case "flat":
		for i := 0; i < chaosStations; i++ {
			cl, err := station(i)
			if err != nil {
				c.stop()
				return nil, err
			}
			srv, err := fed.ServeClientConfig(cl, "127.0.0.1:0", scfg)
			if err != nil {
				c.stop()
				return nil, err
			}
			c.stops = append(c.stops, srv.Stop)
			c.peers = append(c.peers, struct {
				id, addr string
				edge     bool
			}{cl.ID(), srv.Addr(), false})
		}
	case "2-tier":
		per := chaosStations / chaosEdges
		for e := 0; e < chaosEdges; e++ {
			leaves := make([]fed.ClientHandle, 0, per)
			for i := e * per; i < (e+1)*per; i++ {
				cl, err := station(i)
				if err != nil {
					c.stop()
					return nil, err
				}
				leaves = append(leaves, cl)
			}
			edge, err := fed.NewEdge(fmt.Sprintf("edge-%d", e), leaves, fed.EdgeConfig{
				Parallel: true,
				Seed:     seed + uint64(e),
			})
			if err != nil {
				c.stop()
				return nil, err
			}
			srv, err := fed.ServeEdge(edge, "127.0.0.1:0", scfg)
			if err != nil {
				c.stop()
				return nil, err
			}
			c.stops = append(c.stops, srv.Stop)
			c.peers = append(c.peers, struct {
				id, addr string
				edge     bool
			}{edge.ID(), srv.Addr(), true})
		}
	default:
		return nil, fmt.Errorf("%w: topology %q", ErrBadParams, topology)
	}
	return c, nil
}

func (c *chaosCluster) stop() {
	for _, s := range c.stops {
		s()
	}
}

// handles dials a fresh set of coordinator-side handles against the
// cluster's servers. The close func releases every connection.
func (c *chaosCluster) handles(seed uint64) ([]fed.ClientHandle, func()) {
	var remotes []*fed.RemoteClient
	tune := func(rc *fed.RemoteClient, i int) {
		rc.DialTimeout = 5 * time.Second
		rc.ReadTimeout = 10 * time.Second
		rc.MaxRetries = 8
		rc.RetryBackoff = 2 * time.Millisecond
		rc.JitterSeed = seed + uint64(i)
		remotes = append(remotes, rc)
	}
	hs := make([]fed.ClientHandle, 0, len(c.peers))
	for i, p := range c.peers {
		if p.edge {
			re := fed.NewRemoteEdge(p.id, p.addr)
			tune(re.RemoteClient, i)
			hs = append(hs, re)
			continue
		}
		rc := fed.NewRemoteClient(p.id, p.addr)
		tune(rc, i)
		hs = append(hs, rc)
	}
	return hs, func() {
		for _, rc := range remotes {
			rc.Close()
		}
	}
}

func chaosRunConfig(p ChaosParams) fed.Config {
	cfg := fed.DefaultConfig(p.Seed)
	cfg.Rounds = p.Rounds
	cfg.EpochsPerRound = 1
	cfg.Parallel = true
	cfg.TolerateClientErrors = true
	return cfg
}

func maxAbsDiff(a, b []float64) float64 {
	var d float64
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

func countDropped(rounds []fed.RoundStat) int {
	n := 0
	for _, rs := range rounds {
		n += len(rs.Dropped)
	}
	return n
}

// runChaosFaultArm runs one injected-fault federation (no crash) and
// scores it against the control global.
func runChaosFaultArm(sc chaosScenario, topology string, policy chaos.Policy, p ChaosParams, control []float64) (ChaosRecoveryPoint, error) {
	inj := chaos.New(policy)
	cluster, err := buildChaosCluster(topology, inj, p.Seed)
	if err != nil {
		return ChaosRecoveryPoint{}, err
	}
	defer cluster.stop()
	hs, closeHandles := cluster.handles(p.Seed)
	defer closeHandles()

	start := time.Now()
	co, err := fed.NewCoordinator(chaosSpec(), hs, chaosRunConfig(p))
	if err != nil {
		return ChaosRecoveryPoint{}, err
	}
	res, err := co.Run()
	if err != nil {
		return ChaosRecoveryPoint{}, fmt.Errorf("%s/%s: %w", sc, topology, err)
	}
	drops, stalls, corrupts := inj.Counts()
	pt := ChaosRecoveryPoint{
		Scenario:    string(sc),
		Topology:    topology,
		Rounds:      len(res.Rounds),
		Dropped:     countDropped(res.Rounds),
		Faults:      drops + stalls + corrupts,
		WallSeconds: time.Since(start).Seconds(),
		MaxAbsDiff:  maxAbsDiff(res.Global, control),
	}
	switch sc {
	case chaosCorrupt:
		// Silent payload corruption can shift finite values (the wire
		// frames carry no payload CRC); the guarantee is completion with a
		// finite model, with framing-level damage healed by retries.
		pt.WithinTolerance = pt.Rounds == p.Rounds && mat.FirstNonFinite(res.Global) < 0
	default:
		// Drops and stalls must heal completely: retries + redial recover
		// every faulted operation, so the fault-free control is reproduced
		// bit for bit with no dropped participations.
		pt.WithinTolerance = pt.Rounds == p.Rounds && pt.Dropped == 0 && pt.MaxAbsDiff == 0
	}
	return pt, nil
}

// runChaosCrashArm kills the coordinator mid-run via an injected crash
// hook, then resumes a fresh coordinator (fresh TCP handles, same
// cluster) from the latest durable checkpoint.
func runChaosCrashArm(topology string, every int, p ChaosParams, control []float64) (ChaosRecoveryPoint, error) {
	cluster, err := buildChaosCluster(topology, nil, p.Seed)
	if err != nil {
		return ChaosRecoveryPoint{}, err
	}
	defer cluster.stop()

	dir, err := os.MkdirTemp(p.Dir, "evck-*")
	if err != nil {
		return ChaosRecoveryPoint{}, err
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	cfg := chaosRunConfig(p)
	cfg.Checkpoint = fed.CheckpointConfig{Dir: dir, Every: every}
	// Die during the second-to-last round, after aggregation but before
	// the round becomes durable — the worst spot: that round's work must
	// be replayed, not recovered.
	cfg.CrashPoint = chaos.CrashOnce(fed.CrashAfterAggregate, p.Rounds-1)

	hs, closeHandles := cluster.handles(p.Seed)
	co, err := fed.NewCoordinator(chaosSpec(), hs, cfg)
	if err != nil {
		closeHandles()
		return ChaosRecoveryPoint{}, err
	}
	if _, err := co.Run(); !errors.Is(err, chaos.ErrCrash) {
		closeHandles()
		return ChaosRecoveryPoint{}, fmt.Errorf("crash arm: want injected crash, got %v", err)
	}
	closeHandles() // the dead coordinator's connections die with it

	cfg2 := chaosRunConfig(p)
	cfg2.Checkpoint = fed.CheckpointConfig{Dir: dir, Every: every}
	cp, _, err := fed.LatestCheckpoint(dir)
	switch {
	case errors.Is(err, fed.ErrNoCheckpoint):
		// A coarse cadence can crash before anything became durable; the
		// resume then replays from round 1 and must still match.
	case err != nil:
		return ChaosRecoveryPoint{}, err
	default:
		cfg2.Resume = cp
	}
	hs2, closeHandles2 := cluster.handles(p.Seed)
	defer closeHandles2()
	co2, err := fed.NewCoordinator(chaosSpec(), hs2, cfg2)
	if err != nil {
		return ChaosRecoveryPoint{}, err
	}
	res, err := co2.Run()
	if err != nil {
		return ChaosRecoveryPoint{}, fmt.Errorf("resume %s every=%d: %w", topology, every, err)
	}
	pt := ChaosRecoveryPoint{
		Scenario:        string(chaosCoordCrash),
		Topology:        topology,
		CheckpointEvery: every,
		Rounds:          len(res.Rounds),
		Dropped:         countDropped(res.Rounds),
		WallSeconds:     time.Since(start).Seconds(),
		MaxAbsDiff:      maxAbsDiff(res.Global, control),
	}
	pt.WithinTolerance = pt.Rounds == p.Rounds && pt.MaxAbsDiff == 0
	return pt, nil
}

// runChaosServeArm kills the scoring service between verdicts and rebuilds
// it from its atomic snapshot, scoring the restart against an
// uninterrupted service over the same feed.
func runChaosServeArm(p ChaosParams) (ChaosRecoveryPoint, error) {
	start := time.Now()
	det, thr, err := chaosDetector(p.Seed)
	if err != nil {
		return ChaosRecoveryPoint{}, err
	}
	feed := chaosSeries(8*chaosSeqLen, 0.1, p.Seed+77)
	cut := len(feed) / 2

	ctl, err := serve.New(serve.Config{Detector: det, Threshold: thr})
	if err != nil {
		return ChaosRecoveryPoint{}, err
	}
	defer ctl.Close()
	want, err := scoreFeed(ctl, "sta", feed)
	if err != nil {
		return ChaosRecoveryPoint{}, err
	}

	dir, err := os.MkdirTemp(p.Dir, "evsnap-*")
	if err != nil {
		return ChaosRecoveryPoint{}, err
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "serving.bin")

	s1, err := serve.New(serve.Config{Detector: det, Threshold: thr})
	if err != nil {
		return ChaosRecoveryPoint{}, err
	}
	got, err := scoreFeed(s1, "sta", feed[:cut])
	if err != nil {
		s1.Close()
		return ChaosRecoveryPoint{}, err
	}
	if err := s1.SnapshotToFile(snap); err != nil {
		s1.Close()
		return ChaosRecoveryPoint{}, err
	}
	s1.Close() // the crash: per-station stream state is gone

	det2, thr2, err := serve.LoadSnapshotFile(snap)
	if err != nil {
		return ChaosRecoveryPoint{}, err
	}
	s2, err := serve.New(serve.Config{Detector: det2, Threshold: thr2})
	if err != nil {
		return ChaosRecoveryPoint{}, err
	}
	defer s2.Close()
	rest, err := scoreFeed(s2, "sta", feed[cut:])
	if err != nil {
		return ChaosRecoveryPoint{}, err
	}
	got = append(got, rest...)

	pt := ChaosRecoveryPoint{
		Scenario:    string(chaosServeReboot),
		Topology:    "serve",
		Rounds:      1,
		WallSeconds: time.Since(start).Seconds(),
	}
	for i := range want {
		switch {
		case want[i].Ready && !got[i].Ready:
			pt.VerdictWarmupLoss++
		case want[i].Ready && got[i].Ready:
			pt.MaxAbsDiff = math.Max(pt.MaxAbsDiff, math.Abs(want[i].Score-got[i].Score))
			if want[i].Flagged != got[i].Flagged {
				pt.Dropped++ // verdict disagreement, should never happen
			}
		}
	}
	pt.WithinTolerance = pt.MaxAbsDiff == 0 && pt.Dropped == 0 && pt.VerdictWarmupLoss < chaosSeqLen
	return pt, nil
}

// chaosDetector trains a tiny autoencoder detector with a p95 streaming
// threshold, sized for sweep speed rather than detection quality.
func chaosDetector(seed uint64) (*autoencoder.Detector, float64, error) {
	values := chaosSeries(400, 0, seed)
	det, _, err := autoencoder.Train(values, autoencoder.Config{
		SeqLen:       chaosSeqLen,
		EncoderUnits: 4,
		Bottleneck:   2,
		Epochs:       2,
		BatchSize:    16,
		LearningRate: 0.005,
		Patience:     2,
		ValFrac:      0.1,
		TrainStride:  2,
		Seed:         seed,
	})
	if err != nil {
		return nil, 0, err
	}
	sc := det.NewStreamScorer()
	ring, err := anomaly.NewRing(chaosSeqLen)
	if err != nil {
		return nil, 0, err
	}
	var scores []float64
	for _, v := range values {
		if _, w, ok := ring.Push(v); ok {
			s, err := sc.ScoreLast(w)
			if err != nil {
				return nil, 0, err
			}
			scores = append(scores, s)
		}
	}
	sort.Float64s(scores)
	return det, scores[len(scores)*95/100], nil
}

// scoreFeed synchronously scores values for one station in stream order.
func scoreFeed(s *serve.Service, station string, values []float64) ([]serve.Verdict, error) {
	out := make([]serve.Verdict, 0, len(values))
	ch := make(chan serve.Verdict, 1)
	for _, v := range values {
		if err := s.Submit(station, v, func(vd serve.Verdict) { ch <- vd }); err != nil {
			return nil, err
		}
		out = append(out, <-ch)
	}
	return out, nil
}

// RunChaosRecovery executes the full fault matrix: each fault scenario
// over flat and 2-tier TCP federations (coordinator crashes swept over
// checkpoint cadences), plus the serving-tier restart arm, every arm
// scored against a fault-free control of the same topology.
func RunChaosRecovery(params ChaosParams) ([]ChaosRecoveryPoint, error) {
	p := params.fill()
	var out []ChaosRecoveryPoint
	for _, topology := range []string{"flat", "2-tier"} {
		// Fault-free control: the reference global every arm must hit.
		cluster, err := buildChaosCluster(topology, nil, p.Seed)
		if err != nil {
			return nil, err
		}
		hs, closeHandles := cluster.handles(p.Seed)
		start := time.Now()
		co, err := fed.NewCoordinator(chaosSpec(), hs, chaosRunConfig(p))
		if err != nil {
			closeHandles()
			cluster.stop()
			return nil, err
		}
		control, err := co.Run()
		closeHandles()
		cluster.stop()
		if err != nil {
			return nil, fmt.Errorf("control %s: %w", topology, err)
		}
		out = append(out, ChaosRecoveryPoint{
			Scenario:        string(chaosBaseline),
			Topology:        topology,
			Rounds:          len(control.Rounds),
			Dropped:         countDropped(control.Rounds),
			WallSeconds:     time.Since(start).Seconds(),
			WithinTolerance: len(control.Rounds) == p.Rounds,
		})

		// Corruption gets a grace window past the preflight handshakes: a
		// flipped byte in a Hello version field reads as a permanent
		// protocol mismatch, which is a different failure class than
		// in-flight payload damage. The 2-tier root sees far fewer link
		// operations (2 edges vs 4 stations), so its window is shorter.
		grace := 32
		if topology == "2-tier" {
			grace = 16
		}
		arms := []struct {
			sc     chaosScenario
			policy chaos.Policy
		}{
			{chaosConnDrop, chaos.Policy{Seed: p.Seed, DropProb: 0.1}},
			{chaosStall, chaos.Policy{Seed: p.Seed, StallProb: 0.25, StallFor: 10 * time.Millisecond}},
			{chaosCorrupt, chaos.Policy{Seed: p.Seed, CorruptProb: 0.4, GraceOps: grace}},
		}
		for _, arm := range arms {
			pt, err := runChaosFaultArm(arm.sc, topology, arm.policy, p, control.Global)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
		}
		for _, every := range p.CheckpointEvery {
			pt, err := runChaosCrashArm(topology, every, p, control.Global)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
		}
	}
	pt, err := runChaosServeArm(p)
	if err != nil {
		return nil, err
	}
	out = append(out, pt)
	return out, nil
}
