package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/evfed/evfed/internal/dataset"
	"github.com/evfed/evfed/internal/fed"
	"github.com/evfed/evfed/internal/nn"
	"github.com/evfed/evfed/internal/rng"
	"github.com/evfed/evfed/internal/scale"
)

// The fed-tree workload: a root fed.Coordinator over loopback TCP (codec
// q8, a durable checkpoint every round) to two fed.Edges, each fronting
// 1,000 simulated stations, plus two real fed.Client stations with tiny
// series directly under the root, so Train/TrainOK q8-delta frames ride
// beside TrainPartial frames. There is no training to hide behind: wire
// encode/decode, transport, the compensated fold and the checkpoint fsync
// are the whole round. pipeline runs the same round loop in-process,
// where they are noise.

const (
	simPerEdge = 1000
	numEdges   = 2
	numReal    = 2
	// simPool is the number of distinct pseudo-update vectors the
	// simulated stations draw from.
	simPool = 8
	// minRounds is the least a run federates, however short its box.
	minRounds = 20
	// fedTol is how far the root's compensated fold may sit from the
	// plain float64 reference fold, per coordinate.
	fedTol = 1e-9
)

// simStation answers Train without training: its update for a round is
// one of simPool seeded vectors, picked by station and round, weighted by
// a per-station sample count. The vectors are shared and read-only — the
// mean fold reads an update once and drops it — so a thousand stations
// cost the edge a thousand folds and nothing else.
type simStation struct {
	id      string
	index   int
	samples int
	pool    [][]float64
}

func (s *simStation) ID() string               { return s.id }
func (s *simStation) NumSamples() (int, error) { return s.samples, nil }
func (s *simStation) Hello() (fed.HelloInfo, error) {
	return fed.HelloInfo{StationID: s.id, ModelDim: len(s.pool[0]), NumSamples: s.samples}, nil
}
func (s *simStation) Train(_ []float64, cfg fed.LocalTrainConfig) (fed.Update, error) {
	return fed.Update{
		ClientID:   s.id,
		Weights:    s.pool[(s.index+cfg.Round)%len(s.pool)],
		NumSamples: s.samples,
		FinalLoss:  1 / float64(cfg.Round+1),
	}, nil
}

// simSamples is a simulated station's FedAvg weight.
func simSamples(index int) int { return 50 + index%17 }

type fedTreeWorkload struct {
	o   options
	env *fedEnv
}

func newFedTreeWorkload(o options) *fedTreeWorkload { return &fedTreeWorkload{o: o} }

func (w *fedTreeWorkload) limit(seconds float64) time.Duration { return boxedLimit(seconds) }

func (w *fedTreeWorkload) steadyMemory() bool { return true }

type fedEnv struct {
	spec    nn.Spec
	dim     int
	pool    [][]float64
	servers []*fed.ClientServer
	remotes []*fed.RemoteClient // the four root-side connections, in client order
	handles []fed.ClientHandle  // what the coordinator is given (possibly wrapped)
	real    []*capture          // the real stations' wrappers
	io      *ioClock
	dir     string
}

// capture wraps a real station's handle and keeps the last update the
// root decoded from it, so the reference fold can use exactly what the
// coordinator aggregated. The decoded vector is a fresh allocation per
// call, so keeping the slice costs nothing.
type capture struct {
	fed.ClientHandle
	mu   sync.Mutex
	last fed.Update
}

func (c *capture) Train(global []float64, cfg fed.LocalTrainConfig) (fed.Update, error) {
	u, err := c.ClientHandle.Train(global, cfg)
	if err == nil {
		c.mu.Lock()
		c.last = u
		c.mu.Unlock()
	}
	return u, err
}

func (c *capture) Hello() (fed.HelloInfo, error) { return c.ClientHandle.(fed.Prober).Hello() }

func (c *capture) lastUpdate() fed.Update {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// timedHandle is the traced run's wrapper: a span per call, and the
// call's return time for the aggregate-tail figure.
type timedHandle struct {
	inner fed.ClientHandle
	tr    *tracer
	clock *roundClock
}

func (t *timedHandle) ID() string                    { return t.inner.ID() }
func (t *timedHandle) NumSamples() (int, error)      { return t.inner.NumSamples() }
func (t *timedHandle) Hello() (fed.HelloInfo, error) { return t.inner.(fed.Prober).Hello() }
func (t *timedHandle) Train(global []float64, cfg fed.LocalTrainConfig) (fed.Update, error) {
	id, t0 := t.tr.begin("fed.Train "+t.inner.ID(), t.clock.roundSpan()), time.Now()
	u, err := t.inner.Train(global, cfg)
	t.tr.end(id)
	t.clock.trainReturned(t0)
	return u, err
}

// timedEdge adds TrainPartial, which the round engine dispatches on.
type timedEdge struct{ timedHandle }

func (t *timedEdge) TrainPartial(global []float64, cfg fed.LocalTrainConfig) (fed.Partial, error) {
	id, t0 := t.tr.begin("fed.TrainPartial "+t.inner.ID(), t.clock.roundSpan()), time.Now()
	p, err := t.inner.(fed.PartialTrainer).TrainPartial(global, cfg)
	t.tr.end(id)
	t.clock.trainReturned(t0)
	return p, err
}

// roundClock collects one round's timestamps from the seams the
// coordinator offers: handle calls, the two crash points, OnRound.
type roundClock struct {
	mu         sync.Mutex
	span       int
	firstCall  time.Time // when the round's first handle call began
	lastReturn time.Time // when the last handle call returned
}

func (c *roundClock) roundSpan() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.span
}

func (c *roundClock) trainReturned(t0 time.Time) {
	now := time.Now()
	c.mu.Lock()
	if c.firstCall.IsZero() || t0.Before(c.firstCall) {
		c.firstCall = t0
	}
	c.lastReturn = now
	c.mu.Unlock()
}

// ioClock sums the time spent inside connection reads and writes, on both
// ends of every connection. The protocol alternates request and response,
// so the first Read after a Write (or on a fresh connection) is the wait
// for the peer's work, not IO, and is left out.
type ioClock struct{ ns atomic.Int64 }

type timedConn struct {
	net.Conn
	clock   *ioClock
	waiting bool // the next Read waits for the peer
}

func (c *timedConn) Read(b []byte) (int, error) {
	if c.waiting {
		c.waiting = false
		return c.Conn.Read(b)
	}
	t0 := time.Now()
	n, err := c.Conn.Read(b)
	c.clock.ns.Add(int64(time.Since(t0)))
	return n, err
}

func (c *timedConn) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(b)
	c.clock.ns.Add(int64(time.Since(t0)))
	c.waiting = true
	return n, err
}

func (w *fedTreeWorkload) setup(traced bool) error {
	env := &fedEnv{spec: nn.ForecasterSpec(50, 10), io: &ioClock{}}
	w.env = env
	model, err := nn.Build(env.spec, w.o.seed)
	if err != nil {
		return err
	}
	env.dim = model.NumParams()
	r := rng.New(w.o.seed ^ 0xfed7ee)
	env.pool = make([][]float64, simPool)
	for i := range env.pool {
		env.pool[i] = make([]float64, env.dim)
		for j := range env.pool[i] {
			env.pool[i][j] = r.Normal(0, 0.1)
		}
	}
	var scfg fed.ServerConfig
	var dialer func(addr string, timeout time.Duration) (net.Conn, error)
	if traced {
		scfg.WrapConn = func(c net.Conn) net.Conn { return &timedConn{Conn: c, clock: env.io, waiting: true} }
		dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return &timedConn{Conn: c, clock: env.io, waiting: true}, nil
		}
	}

	for e := 0; e < numEdges; e++ {
		stations := make([]fed.ClientHandle, simPerEdge)
		for k := range stations {
			idx := e*simPerEdge + k
			stations[k] = &simStation{id: fmt.Sprintf("sim-%04d", idx), index: idx, samples: simSamples(idx), pool: env.pool}
		}
		ecfg := fed.DefaultEdgeConfig()
		ecfg.TolerateClientErrors = false
		ecfg.MaxConcurrentClients = runtime.GOMAXPROCS(0)
		ecfg.Seed = w.o.seed
		edge, err := fed.NewEdge(fmt.Sprintf("edge-%d", e), stations, ecfg)
		if err != nil {
			return err
		}
		srv, err := fed.ServeEdge(edge, "127.0.0.1:0", scfg)
		if err != nil {
			return err
		}
		env.servers = append(env.servers, srv)
		re := fed.NewRemoteEdge(edge.ID(), srv.Addr())
		re.ReadTimeout, re.Dialer = 10*time.Second, dialer
		env.remotes = append(env.remotes, re.RemoteClient)
		env.handles = append(env.handles, re)
	}
	for s := 0; s < numReal; s++ {
		gen, err := dataset.Generate(dataset.Config{Profile: dataset.Profile102(), Hours: 72, Seed: w.o.seed + uint64(s) + 11})
		if err != nil {
			return err
		}
		var sc scale.MinMaxScaler
		values, err := sc.FitTransform(gen.Series.Values)
		if err != nil {
			return err
		}
		client, err := fed.NewClient(fmt.Sprintf("station-%d", s), env.spec, values, 24, w.o.seed+uint64(s)*104729)
		if err != nil {
			return err
		}
		srv, err := fed.ServeClientConfig(client, "127.0.0.1:0", scfg)
		if err != nil {
			return err
		}
		env.servers = append(env.servers, srv)
		rc := fed.NewRemoteClient(client.ID(), srv.Addr())
		rc.ReadTimeout, rc.Dialer = 10*time.Second, dialer
		env.remotes = append(env.remotes, rc)
		cp := &capture{ClientHandle: rc}
		env.real = append(env.real, cp)
		env.handles = append(env.handles, cp)
	}
	// Dial and shake hands now: connection set-up is set-up.
	for _, h := range env.handles {
		if _, err := h.(fed.Prober).Hello(); err != nil {
			return fmt.Errorf("fed-tree: hello %s: %w", h.ID(), err)
		}
	}
	env.dir = filepath.Join(".bench_build", "tmp", fmt.Sprintf("fedtree-%d-%d", os.Getpid(), time.Now().UnixNano()))
	return os.MkdirAll(env.dir, 0o755)
}

func (w *fedTreeWorkload) teardown() {
	env := w.env
	if env == nil {
		return
	}
	for _, r := range env.remotes {
		r.Close()
	}
	for _, s := range env.servers {
		s.Stop()
	}
	if env.dir != "" {
		os.RemoveAll(env.dir)
	}
	w.env = nil
}

// roundRecord is what the OnRound hook keeps of one round.
type roundRecord struct {
	at            time.Time
	sent, recv    uint64 // cumulative root traffic
	subtree       uint64
	leafOK, leafX int
	droppedPeers  int
	localMS       float64
	tailMS        float64
	ckptMS        float64
	ioNS          int64
}

var errBoxDone = errors.New("bench: time box reached")

func (w *fedTreeWorkload) run(tr *tracer, seconds float64, wd *watchdog) (*outcome, error) {
	env := w.env
	out := newOutcome()
	handles := env.handles
	clock := &roundClock{}
	if tr != nil {
		handles = make([]fed.ClientHandle, len(env.handles))
		for i, h := range env.handles {
			th := timedHandle{inner: h, tr: tr, clock: clock}
			if _, ok := h.(fed.PartialTrainer); ok {
				handles[i] = &timedEdge{th}
			} else {
				handles[i] = &th
			}
		}
	}

	traffic := func() (sent, recv uint64) {
		for _, r := range env.remotes {
			s, v := r.Traffic()
			sent, recv = sent+s, recv+v
		}
		return sent, recv
	}

	var (
		records   []roundRecord
		globals   = map[int][]float64{}    // round → the global it produced (first two and last)
		realUpds  = map[int][]fed.Update{} // round → the real stations' updates
		stop      atomic.Bool
		aggregate time.Time
		ckptDone  time.Time
	)
	root := tr.begin("fed.run", 0)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	clock.span = tr.begin("fed.round", root)

	cfg := fed.Config{
		Rounds:               1 << 20, // the time box ends the run, not the round count
		EpochsPerRound:       1,
		BatchSize:            32,
		LearningRate:         0.001,
		Seed:                 w.o.seed,
		Parallel:             true,
		MaxConcurrentClients: runtime.GOMAXPROCS(0), // at most nproc connections busy at once
		WorkersPerClient:     1,
		Codec:                fed.CodecQ8,
		RoundDeadline:        5 * time.Second,
		TolerateClientErrors: true,
		Checkpoint:           fed.CheckpointConfig{Dir: env.dir, Every: 1, Retain: 2},
		CrashPoint: func(point string) error {
			now := time.Now()
			switch point {
			case fed.CrashAfterAggregate:
				if stop.Load() || wd.hasExpired() {
					return errBoxDone
				}
				aggregate = now
			case fed.CrashAfterCheckpoint:
				ckptDone = now
			}
			return nil
		},
		OnRound: func(stat fed.RoundStat, global []float64) {
			now := time.Now()
			rec := roundRecord{at: now, subtree: stat.SubtreeBytesDown + stat.SubtreeBytesUp,
				leafOK: stat.LeafParticipants, leafX: stat.LeafDropped, droppedPeers: len(stat.Dropped)}
			rec.sent, rec.recv = traffic()
			rec.ckptMS = ckptDone.Sub(aggregate).Seconds() * 1e3
			if tr != nil {
				clock.mu.Lock()
				rec.localMS = clock.lastReturn.Sub(clock.firstCall).Seconds() * 1e3
				rec.tailMS = aggregate.Sub(clock.lastReturn).Seconds() * 1e3
				clock.firstCall = time.Time{}
				tr.end(clock.span)
				tr.add("fed.checkpoint", clock.span, aggregate, ckptDone)
				clock.span = tr.begin("fed.round", root)
				clock.mu.Unlock()
				rec.ioNS = env.io.ns.Load()
			}
			records = append(records, rec)
			// Keep what the reference fold needs: the first two rounds
			// (full-precision then delta-coded broadcast) and the latest.
			if stat.Round >= 3 {
				delete(globals, stat.Round-1)
				delete(realUpds, stat.Round-1)
			}
			globals[stat.Round] = global
			upds := make([]fed.Update, len(env.real))
			for i, c := range env.real {
				upds[i] = c.lastUpdate()
			}
			realUpds[stat.Round] = upds
			if len(records) >= minRounds && !now.Before(deadline) {
				stop.Store(true)
			}
		},
	}
	co, err := fed.NewCoordinator(env.spec, handles, cfg)
	if err != nil {
		return nil, err
	}
	_, err = co.Run()
	tr.end(clock.span)
	tr.end(root)
	if err != nil && !errors.Is(err, errBoxDone) {
		return nil, fmt.Errorf("fed-tree: %w", err)
	}
	if len(records) == 0 {
		out.attempted, out.failed = 1, 1
		out.problem("no round completed within %v", wd.limit)
		return out, nil
	}
	out.wall = records[len(records)-1].at.Sub(start).Seconds()
	if wd.hasExpired() {
		out.fail(1, "watchdog: run cut off after %v", wd.limit)
	}

	// A round's wall is the time between successive OnRound calls, so it
	// includes the checkpoint; the first round (dialled connections'
	// full-precision broadcast) is left out of the medians.
	var wallMS, bytes, up, down, subtree, localMS, tailMS, ckptMS, ioMS []float64
	var dropped int
	for i, rec := range records {
		out.attempted += int64(rec.leafOK + rec.leafX)
		out.failed += int64(rec.leafX)
		dropped += rec.droppedPeers
		if i == 0 {
			continue
		}
		prev := records[i-1]
		wallMS = append(wallMS, rec.at.Sub(prev.at).Seconds()*1e3)
		up = append(up, float64(rec.recv-prev.recv))
		down = append(down, float64(rec.sent-prev.sent))
		bytes = append(bytes, float64(rec.recv-prev.recv+rec.sent-prev.sent))
		subtree = append(subtree, float64(rec.subtree))
		localMS = append(localMS, rec.localMS)
		tailMS = append(tailMS, rec.tailMS)
		ckptMS = append(ckptMS, rec.ckptMS)
		ioMS = append(ioMS, float64(rec.ioNS-prev.ioNS)/1e6)
	}
	if dropped > 0 {
		out.problem("%d client-rounds dropped", dropped)
	}
	roundMS := typical(wallMS)
	out.e2e["round_wall_ms"] = roundMS
	out.e2e["root_bytes_per_round"] = median(bytes)
	out.speed = 1 / roundMS
	sortedWall := append([]float64(nil), wallMS...)
	sort.Float64s(sortedWall)
	out.note("%d rounds in %.2fs; round wall ms: typical %.2f; p10 %.2f, p25 %.2f, median %.2f, p90 %.2f", len(records), out.wall, roundMS,
		percentileSorted(sortedWall, 0.1), percentileSorted(sortedWall, 0.25), percentileSorted(sortedWall, 0.5), percentileSorted(sortedWall, 0.9))

	out.layer["fed.checkpoint_ms"] = median(ckptMS)
	out.layer["fed.dropped_clients"] = float64(dropped)
	out.layer["fed.subtree_bytes_per_round"] = median(subtree)
	out.layer["wire.bytes_up_per_round"] = median(up)
	out.layer["wire.bytes_down_per_round"] = median(down)
	if tr != nil {
		out.layer["fed.local_train_ms"] = median(localMS)
		out.layer["fed.aggregate_tail_ms"] = median(tailMS)
		out.layer["wire.conn_io_ms_per_round"] = median(ioMS)
		if acc := (median(localMS) + median(tailMS) + median(ckptMS)) / median(wallMS); acc < 0.8 {
			out.note("round accounting covers only %.0f%% of round_wall_ms", acc*100)
		}
	}

	w.checkFold(out, globals, realUpds)
	return out, nil
}

// checkFold holds the root's globals to a straight-line reference: for
// each kept round, the sample-weighted mean of all 2,000 pseudo-updates
// and the two real stations' updates as the root decoded them, summed
// left to right in plain float64.
func (w *fedTreeWorkload) checkFold(out *outcome, globals map[int][]float64, realUpds map[int][]fed.Update) {
	env := w.env
	checked := 0
	for round, got := range globals {
		ref := make([]float64, env.dim)
		total := 0.0
		add := func(weight float64, v []float64) {
			for i, x := range v {
				ref[i] += weight * x
			}
			total += weight
		}
		for idx := 0; idx < numEdges*simPerEdge; idx++ {
			add(float64(simSamples(idx)), env.pool[(idx+round)%simPool])
		}
		for _, u := range realUpds[round] {
			if len(u.Weights) != env.dim {
				out.fail(1, "round %d: a real station's update was not captured", round)
				return
			}
			add(float64(u.NumSamples), u.Weights)
		}
		worst := 0.0
		for i := range ref {
			if d := math.Abs(ref[i]/total - got[i]); d > worst || math.IsNaN(d) {
				worst = d
			}
		}
		if !(worst <= fedTol) {
			out.fail(1, "round %d: global differs from the straight-line fold by %.3g", round, worst)
		}
		checked++
	}
	out.note("global equals the straight-line reference fold in %d checked rounds (tolerance %g)", checked, fedTol)
}

func (w *fedTreeWorkload) probes(layer map[string]float64) {
	fedWireProbes(layer, w.o.seed, w.env.dim)
}
