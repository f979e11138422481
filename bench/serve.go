package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/evfed/evfed/internal/anomaly"
	"github.com/evfed/evfed/internal/attack"
	"github.com/evfed/evfed/internal/autoencoder"
	"github.com/evfed/evfed/internal/dataset"
	"github.com/evfed/evfed/internal/rng"
	"github.com/evfed/evfed/internal/scale"
	"github.com/evfed/evfed/internal/serve"
)

// The three serve workloads drive one in-process serve.Service with a
// paper-shape detector (window 24, LSTM 50/25), mitigation on:
//
//   - serve-uniform: closed loop, saturating. Waves fill, so batched GEMM
//     scoring dominates; the capacity figure for ingress, wave assembly
//     and GEMM changes. Work stealing should be idle.
//   - serve-skew: the same with 75 % of station names mined onto shard 0 —
//     the only traffic on which stealing and mailboxes can earn their keep.
//   - serve-paced: open loop at a fixed rate of about 40 % of capacity,
//     one point per Submit, each timed from when it was due. Waves are
//     short, so the single-window path, consumer park/wake and delivery
//     dominate instead of GEMM.

const (
	// chunkLen is the closed loop's SubmitN batch: one ring reservation
	// per 16 points.
	chunkLen = 16
	// closedStations is the closed loop's fleet. Every station may have
	// one chunk outstanding (the producers' in-flight windows add up to
	// closedStations × chunkLen), so a shard's ring always holds more than
	// one drain's worth and every drain yields full waves: 512 tasks = 32
	// stations × 16 points = 16 waves of 32 windows. With only a few chunks
	// in flight a wave holds a handful of windows and the batched path the
	// workload exists to measure never runs.
	closedStations = 256
	// pacedStations is the open loop's fleet.
	pacedStations = 1024
	// queueDepth is each shard's ingress ring: twice everything the
	// producers can have in flight, so ErrBacklog (and the batch
	// reservation's behaviour on a nearly full ring) is not part of
	// normal operation even when serve-skew puts most of it on one shard.
	queueDepth = 2 * closedStations * chunkLen
	// warmChunks is how many chunks set-up feeds every station before
	// anything is timed: 2 × 16 points fill the 24-point windows, so every
	// timed verdict is a scored one.
	warmChunks = 2
	// poolLen is the length of each shared feed; a multiple of chunkLen so
	// that chunks never wrap.
	poolLen = 2048
	// pacedRate is serve-paced's offered load in points per second, all
	// stations together: about 40 % of what the single-window path — the
	// one short waves take — sustains on the 2-CPU host the benchmark was
	// calibrated on (≈ 415 µs per window, two shards: ≈ 4,800 points/s).
	// 40 % of serve-uniform's batched 13,000 would overload that path.
	// Fixed, so that every version of the program is offered the same
	// schedule.
	pacedRate = 2000
	// latencyLimit is the limit serve-paced's reported p99 — of verdict
	// latency, and of the load generator's own lag — must meet. It is held
	// against the percentile, not against every verdict, and it is fifty
	// times the healthy 1.95 ms, because a healthy service must come out
	// with no failed operation on the calibration host: that stalls the
	// whole process (no GC running; both pacers and both shards late
	// together) for 5–15 ms a few times per run and for a quarter of a
	// second or more once in ten runs of 20 s (532 of 40,000 verdicts later
	// than 250 ms), and under a busy neighbour every half-second slice of a
	// run showed a p99 of 9 ms. A queue that grows passes any limit within
	// seconds, in every slice from then on; a verdict that never arrives
	// misses every limit and is counted one by one.
	latencyLimit = 100 * time.Millisecond
	// submitRetries is how often a point bounced with ErrBacklog is
	// offered again before it counts as failed.
	submitRetries = 3
	// sliceEvery is the length of the time slices the closed loop's
	// delivery rate is sampled in, and sustainedQuantile the quantile of
	// those slices that points_per_s reports. The benchmark's host changes
	// clock speed for seconds at a time (a dependent integer multiply chain
	// runs 0.80 or 1.03 iterations/ns, in stretches of 1–5 s), and scoring
	// speed follows it; the unboosted floor repeats from run to run within
	// a few percent, the mean does not.
	sliceEvery        = 250 * time.Millisecond
	sustainedQuantile = 0.10
	// latencySlice is the length of the time slices the open loop's
	// latencies are cut into (see typicalQuantile): half a second is 1,000
	// verdicts, the fewest that leave ten beyond the 99th percentile.
	latencySlice = 500 * time.Millisecond
)

type serveWorkload struct {
	o         options
	nStations int
	skew      float64
	paced     bool
	producers int
	env       *serveEnv
}

func newServeWorkload(o options, stations int, skew float64, paced bool) *serveWorkload {
	producers := 2
	if n := runtime.GOMAXPROCS(0); n < producers {
		producers = n
	}
	return &serveWorkload{o: o, nStations: stations, skew: skew, paced: paced, producers: producers}
}

func (w *serveWorkload) limit(seconds float64) time.Duration { return boxedLimit(seconds) }

// steadyMemory: no. A shard builds its steal scorers (7 MB each) the
// first time it happens to win a steal, nn.Workspace keeps one set of
// matrices per batch shape it has seen, and every model swap retires a
// generation of both — the timed phase's peak came out anywhere between
// 31 and 47 MB for the same inputs.
func (w *serveWorkload) steadyMemory() bool { return false }

// stationState is the benchmark's view of one station: the producer's
// cursor into its feed, and — touched only by the station's shard
// goroutine, inside the reply callback — the order checks.
type stationState struct {
	h     *serve.Station
	pool  []float64
	start int // first feed position (replay needs it)
	off   int // next feed position; producer side
	prod  int // the producer that owns the station
	pos   int // index within the producer's station set
	reply func(serve.Verdict)

	// deliver is what the current phase does with a checked verdict
	// (release the window, record the latency). Set between phases.
	deliver func(serve.Verdict)

	next  int // expected Index of the next verdict
	epoch int // highest Epoch seen
	bad   int64
	rec   []anomaly.StreamDecision // non-nil on the sampled station: its verdicts
}

func (st *stationState) nextChunk() []float64 {
	c := st.pool[st.off : st.off+chunkLen]
	st.off = (st.off + chunkLen) % len(st.pool)
	return c
}

func (st *stationState) nextValue() float64 {
	v := st.pool[st.off]
	st.off = (st.off + 1) % len(st.pool)
	return v
}

type serveEnv struct {
	svc      *serve.Service
	det      *autoencoder.Detector
	thr      float64
	stations []*stationState
	sets     [][]*stationState // one per producer
	windows  []*window
	sample   *stationState

	stallAfter int           // -stall-reply: sampled verdicts before the callback blocks; -1 = never
	release    chan struct{} // closed to let a stalled callback go
}

// serveDetector trains the serving model: the paper's architecture on a
// short normal feed, a few epochs — enough for a calibrated threshold and
// a working flag/mitigate path; the workloads measure scoring, not
// detection quality.
func serveDetector(seed uint64) (*autoencoder.Detector, *scale.MinMaxScaler, float64, error) {
	gen, err := dataset.Generate(dataset.Config{Profile: dataset.Profile102(), Hours: 480, Seed: seed})
	if err != nil {
		return nil, nil, 0, err
	}
	var sc scale.MinMaxScaler
	values, err := sc.FitTransform(gen.Series.Values)
	if err != nil {
		return nil, nil, 0, err
	}
	cfg := autoencoder.DefaultConfig()
	cfg.SeqLen = 24
	cfg.Epochs = 2
	cfg.Patience = 2
	cfg.TrainStride = 4
	cfg.LearningRate = 0.005
	cfg.Seed = seed
	cfg.Workers = 2
	det, _, err := autoencoder.Train(values, cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	thr, err := serve.CalibrateThreshold(det, values, 0.98)
	if err != nil {
		return nil, nil, 0, err
	}
	return det, &sc, thr, nil
}

// feedPools generates the shared station feeds: each zone profile's
// demand with DDoS episodes injected, in the detector's scaling frame, so
// the flag and mitigation paths run under load.
func feedPools(seed uint64, sc *scale.MinMaxScaler) ([][]float64, error) {
	profiles := []dataset.ZoneProfile{dataset.Profile102(), dataset.Profile105(), dataset.Profile108()}
	pools := make([][]float64, 0, len(profiles))
	for i, prof := range profiles {
		gen, err := dataset.Generate(dataset.Config{Profile: prof, Hours: poolLen, Seed: seed + uint64(i) + 1})
		if err != nil {
			return nil, err
		}
		r := rng.New(seed ^ uint64(i+1)*0xfeed)
		sched := attack.DefaultSchedule()
		sched.Episodes = 6
		eps, err := attack.Schedule(sched, poolLen, 0, r)
		if err != nil {
			return nil, err
		}
		inj, err := attack.InjectDDoS(gen.Series.Values, eps, attack.DefaultTraffic(), r)
		if err != nil {
			return nil, err
		}
		scaled, err := sc.Transform(inj.Values)
		if err != nil {
			return nil, err
		}
		pools = append(pools, scaled)
	}
	return pools, nil
}

// stationNames builds the fleet's names: the first skew share is mined (by
// FNV-32a, the service's own hash) onto shard 0, the rest keep their
// natural spread.
func stationNames(n, shards int, skew float64, seed uint64) []string {
	names := make([]string, n)
	hot := int(skew * float64(n))
	for k, try := 0, 0; k < hot; try++ {
		name := fmt.Sprintf("s%d-hot%04d-%d", seed, k, try)
		h := fnv.New32a()
		h.Write([]byte(name))
		if h.Sum32()%uint32(shards) == 0 {
			names[k] = name
			k++
		}
	}
	for k := hot; k < n; k++ {
		names[k] = fmt.Sprintf("s%d-z%04d", seed, k)
	}
	return names
}

func (w *serveWorkload) setup(bool) error {
	det, sc, thr, err := serveDetector(w.o.seed)
	if err != nil {
		return err
	}
	pools, err := feedPools(w.o.seed, sc)
	if err != nil {
		return err
	}
	shards := runtime.GOMAXPROCS(0)
	svc, err := serve.New(serve.Config{
		Detector:   det,
		Threshold:  thr,
		Shards:     shards,
		QueueDepth: queueDepth,
		Mitigate:   true,
		Rollout:    serve.RolloutConfig{Enabled: !w.paced},
	})
	if err != nil {
		return err
	}
	env := &serveEnv{svc: svc, det: det, thr: thr, release: make(chan struct{}), stallAfter: -1}
	r := rng.New(w.o.seed ^ 0x57a7105)
	names := stationNames(w.nStations, shards, w.skew, w.o.seed)
	env.sets = make([][]*stationState, w.producers)
	for p := 0; p < w.producers; p++ {
		env.windows = append(env.windows, newWindow(int64(closedStations*chunkLen/w.producers)))
	}
	for k, name := range names {
		h, err := svc.Station(name)
		if err != nil {
			svc.Close()
			return err
		}
		st := &stationState{h: h, pool: pools[k%len(pools)], start: r.Intn(poolLen/chunkLen) * chunkLen}
		st.off = st.start
		st.reply = func(v serve.Verdict) { env.observe(st, v) }
		// Stations are dealt round-robin so that a skewed fleet's hot
		// stations are spread over both producers.
		p := k % w.producers
		st.prod, st.pos = p, len(env.sets[p])
		env.sets[p] = append(env.sets[p], st)
		env.stations = append(env.stations, st)
	}
	env.sample = env.stations[len(env.stations)/2]
	env.sample.rec = make([]anomaly.StreamDecision, 0, 1<<14)
	w.env = env

	// Warm-up: fill every station's window, through the same bounded
	// in-flight windows the timed phase uses (a producer that floods a
	// ring until it is full is what the closed loop is built not to be).
	// Part of setup, not of the timed phase.
	wd := newWatchdog(30 * time.Second)
	for p, set := range env.sets {
		win := env.windows[p]
		for _, st := range set {
			st.deliver = func(serve.Verdict) { win.release(1) }
		}
	}
	for c := 0; c < warmChunks; c++ {
		for _, st := range env.stations {
			if !env.windows[st.prod].acquire(chunkLen, wd) {
				return errors.New("serve warm-up: verdicts did not arrive within 30s")
			}
			chunk := st.nextChunk()
			for len(chunk) > 0 {
				n, err := st.h.SubmitN(chunk, st.reply)
				if err != nil && !errors.Is(err, serve.ErrBacklog) {
					return err
				}
				chunk = chunk[n:]
				if err != nil {
					runtime.Gosched()
				}
			}
		}
	}
	for _, win := range env.windows {
		if !win.drained(wd) {
			return errors.New("serve warm-up: verdicts did not arrive within 30s")
		}
	}
	return nil
}

func (w *serveWorkload) teardown() {
	if w.env == nil {
		return
	}
	closeWithin(w.env.svc, 10*time.Second)
	w.env = nil
}

// closeWithin closes the service but does not wait for it for ever: a
// shard that never drains is reported by the workload, not inherited as
// a stuck process.
func closeWithin(svc *serve.Service, d time.Duration) {
	done := make(chan struct{})
	go func() {
		svc.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
	}
}

// observe is every verdict's first stop, on the owning shard's goroutine:
// per-station indices must be contiguous and epochs must not go back.
func (env *serveEnv) observe(st *stationState, v serve.Verdict) {
	if v.Index != st.next || v.Epoch < st.epoch {
		st.bad++
	}
	st.next = v.Index + 1
	st.epoch = v.Epoch
	if st.rec != nil {
		st.rec = append(st.rec, v.StreamDecision)
		if env.stallAfter >= 0 && len(st.rec) > env.stallAfter {
			<-env.release // -stall-reply: a callback that never returns
		}
	}
	st.deliver(v)
}

func (w *serveWorkload) run(tr *tracer, seconds float64, wd *watchdog) (*outcome, error) {
	env := w.env
	if w.o.stall {
		// A few verdicts into the run; a paced station gets only two a second.
		env.stallAfter = len(env.sample.rec) + 4
	}
	var out *outcome
	if w.paced {
		out = w.runPaced(tr, seconds, wd)
	} else {
		out = w.runClosed(tr, seconds, wd)
	}
	if wd.hasExpired() {
		// Let a stalled callback go so that teardown can drain the shard;
		// the per-station state is not read — its goroutine may still run.
		close(env.release)
		out.problem("watchdog: run cut off after %v with verdicts outstanding", wd.limit)
		return out, nil
	}
	w.checkOrder(out)
	return out, nil
}

// checkOrder applies the serve workloads' reference checks once the run
// has drained: per-station order, and the sampled station's scores
// against a single-goroutine replay of its feed.
func (w *serveWorkload) checkOrder(out *outcome) {
	env := w.env
	var bad int64
	for _, st := range env.stations {
		bad += st.bad
	}
	if bad > 0 {
		out.fail(bad, "%d verdicts out of order (index gap or epoch going back)", bad)
	}
	s := env.sample
	mism, detail := replayMismatches(env.det, env.thr, s.pool, s.start, s.rec)
	if mism > 0 {
		out.fail(int64(mism), "sampled station: %d of %d verdicts differ from the single-goroutine replay (%s)",
			mism, len(s.rec), detail)
	} else {
		out.note("sampled station: %d verdicts equal the single-goroutine replay", len(s.rec))
	}
}

// replayMismatches is the reference the service is held to: the sampled
// station's feed pushed, on one goroutine, through the look-back ring and
// last-point scorer that anomaly.Stream is made of, with the service's
// mitigation rule (a flagged point's reconstruction replaces it in the
// window). Scores must agree to the batched kernels' summation-order
// tolerance; a flag may differ only where the score sits on the
// threshold.
func replayMismatches(det *autoencoder.Detector, thr float64, pool []float64, start int, got []anomaly.StreamDecision) (int, string) {
	ring, err := anomaly.NewRing(det.Config().SeqLen)
	if err != nil {
		return len(got), err.Error()
	}
	scorer := det.NewStreamScorer()
	const tol = 1e-6
	bad, detail := 0, ""
	miss := func(i int, format string, args ...any) {
		if bad == 0 {
			detail = fmt.Sprintf("first at point %d: ", i) + fmt.Sprintf(format, args...)
		}
		bad++
	}
	for i, g := range got {
		idx, win, ready := ring.Push(pool[(start+i)%len(pool)])
		if g.Index != idx {
			miss(i, "index %d, replay %d", g.Index, idx)
			continue
		}
		if !ready {
			if g.Ready || g.Flagged {
				miss(i, "scored during warm-up")
			}
			continue
		}
		score, recon, err := scorer.ScoreLastRecon(win)
		if err != nil {
			return len(got), err.Error()
		}
		near := math.Abs(score-thr) <= tol*thr
		switch {
		case !g.Ready:
			miss(i, "not scored")
		case math.Abs(score-g.Score) > tol*math.Abs(score)+1e-12:
			miss(i, "score %.12g, replay %.12g", g.Score, score)
		case g.Flagged != (score > thr) && !near:
			miss(i, "flagged %v at score %.6g, threshold %.6g", g.Flagged, score, thr)
		}
		if g.Flagged {
			ring.AmendLast(recon)
		}
	}
	return bad, detail
}

// serveLayerCounts turns two Stats snapshots into the serve layer's counts.
func serveLayerCounts(layer map[string]float64, before, after serve.Stats, submitCalls, lost int64) {
	batched := float64(after.BatchedWindows - before.BatchedWindows)
	calls := float64(after.BatchCalls - before.BatchCalls)
	single := float64(after.SingleWindows - before.SingleWindows)
	offered := float64(after.StealOffered - before.StealOffered)
	stolen := float64(after.StealStolen - before.StealStolen)
	if calls > 0 {
		layer["serve.batch_fill"] = batched / calls
	}
	if batched+single > 0 {
		layer["serve.batched_share"] = batched / (batched + single)
	}
	if submitCalls > 0 {
		layer["serve.rejected_share"] = float64(after.Rejected-before.Rejected) / float64(submitCalls)
	}
	layer["serve.steal_offered"] = offered
	if offered > 0 {
		layer["serve.steal_taken_share"] = stolen / offered
	}
	layer["serve.internal_p50_us"] = after.LatencyP50Micros
	layer["serve.internal_p99_us"] = after.LatencyP99Micros
	layer["serve.lost_verdicts"] = float64(lost)
}

// runClosed is the saturating closed loop of serve-uniform and serve-skew:
// each producer walks its stations submitting 16-point chunks as fast as
// its in-flight window allows, while a control goroutine swaps the model
// (two hot reloads, one stage → promote) beside the scoring reads.
func (w *serveWorkload) runClosed(tr *tracer, seconds float64, wd *watchdog) *outcome {
	env := w.env
	out := newOutcome()
	for p, set := range env.sets {
		win := env.windows[p]
		for _, st := range set {
			st.deliver = func(serve.Verdict) { win.release(1) }
		}
	}
	before := env.svc.Stats()
	var mem0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&mem0)
	}
	root := tr.begin("serve.run", 0)
	start := time.Now()
	length := time.Duration(seconds * float64(time.Second))
	deadline := start.Add(length)

	// Delivery rate per time slice: the service's own verdict counter,
	// read at a fixed cadence beside the run.
	sampler := startRateSampler(func() uint64 { return env.svc.Stats().Points }, sliceEvery)
	// Model writes beside scoring reads.
	stopCtl := make(chan struct{})
	ctlDone := make(chan struct{})
	var reloadMS, stageMS []float64
	var ctlErr error
	go func() {
		defer close(ctlDone)
		// Two hot reloads and one stage → promote, a quarter of the run
		// apart.
		for k := 1; k <= 3; k++ {
			select {
			case <-time.After(time.Until(start.Add(time.Duration(k) * length / 4))):
			case <-stopCtl:
				return
			}
			t0 := time.Now()
			var err error
			if k == 3 {
				id := tr.begin("serve.StageWeights+Promote", root)
				if _, err = env.svc.StageWeights(env.svc.Weights(), 0); err == nil {
					_, err = env.svc.Promote()
				}
				stageMS = append(stageMS, time.Since(t0).Seconds()*1e3)
				tr.end(id)
			} else {
				id := tr.begin("serve.ReloadWeights", root)
				_, err = env.svc.ReloadWeights(env.svc.Weights(), 0)
				reloadMS = append(reloadMS, time.Since(t0).Seconds()*1e3)
				tr.end(id)
			}
			if err != nil {
				ctlErr = err
				return
			}
		}
	}()

	tallies := make([]tally, w.producers)
	var wg sync.WaitGroup
	for p := 0; p < w.producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			id := tr.begin(fmt.Sprintf("serve.producer[%d]", p), root)
			defer tr.end(id)
			produce(env.sets[p], env.windows[p], deadline, wd, &tallies[p], tr != nil,
				func(st *stationState, chunk []float64) (int, error) { return st.h.SubmitN(chunk, st.reply) })
		}(p)
	}
	wg.Wait()
	out.wall = time.Since(start).Seconds()
	tr.end(root)
	close(stopCtl)
	<-ctlDone

	var sum tally
	var lost int64
	for p := range tallies {
		sum.add(tallies[p])
		lost += env.windows[p].inflight.Load()
	}
	delivered := sum.accepted - lost
	out.attempted = sum.accepted + sum.gaveUp
	if lost > 0 {
		out.fail(lost, "%d accepted points got no verdict", lost)
	}
	if sum.gaveUp > 0 {
		out.fail(sum.gaveUp, "%d points rejected past the retry budget", sum.gaveUp)
	}
	if ctlErr != nil {
		out.fail(1, "model swap: %v", ctlErr)
	}
	if len(reloadMS) != 2 || len(stageMS) != 1 {
		out.fail(1, "model swaps fired: %d reloads, %d stage+promote (want 2 and 1)", len(reloadMS), len(stageMS))
	}
	rates := sampler.stop()
	out.speed = float64(delivered) / out.wall
	out.e2e["points_per_s"] = out.speed
	sort.Float64s(rates)
	if len(rates) > 0 {
		out.e2e["points_per_s"] = percentileSorted(rates, sustainedQuantile)
	}
	out.note("delivery rate: %.0f points/s over the whole run; %d slices of %v: p10 %.0f, median %.0f, max %.0f",
		out.speed, len(rates), sliceEvery, percentileSorted(rates, 0.1), percentileSorted(rates, 0.5), percentileSorted(rates, 1))

	after := env.svc.Stats()
	serveLayerCounts(out.layer, before, after, sum.calls, lost)
	out.layer["serve.reload_ms"] = median(reloadMS)
	out.layer["serve.stage_promote_ms"] = median(stageMS)
	out.layer["loadgen.offered_pts_s"] = float64(out.attempted) / out.wall
	if tr != nil && sum.accepted > 0 {
		var mem1 runtime.MemStats
		runtime.ReadMemStats(&mem1)
		out.layer["serve.allocs_per_point"] = float64(mem1.Mallocs-mem0.Mallocs) / float64(sum.accepted)
		out.layer["serve.submit_ns"] = float64(sum.submitNS) / float64(sum.accepted)
	}
	return out
}

// runPaced is serve-paced's open loop: the stations' points fall due on
// a fixed schedule whatever the service does, and each verdict is timed
// from its point's due time — a stall delays the points behind it and
// every one of them shows it.
func (w *serveWorkload) runPaced(tr *tracer, seconds float64, wd *watchdog) *outcome {
	env := w.env
	out := newOutcome()
	perProducer := int(float64(pacedRate) * seconds / float64(w.producers))
	interval := float64(w.producers) * 1e9 / pacedRate // ns between one producer's points
	lat := make([][]int64, w.producers)                // verdict latency by schedule slot; 0 = none yet
	lag := make([][]int64, w.producers)                // how late each point was sent
	var outstanding atomic.Int64

	before := env.svc.Stats()
	var mem0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&mem0)
	}
	root := tr.begin("serve.run", 0)
	start := time.Now()
	for p, set := range env.sets {
		lat[p] = make([]int64, perProducer)
		lag[p] = make([]int64, perProducer)
		slots, n := lat[p], len(set)
		for _, st := range set {
			pos, base := st.pos, st.next // base: verdicts the station got in set-up
			st.deliver = func(v serve.Verdict) {
				slot := (v.Index-base)*n + pos
				if slot >= 0 && slot < len(slots) {
					slots[slot] = sinceDue(start, slot, interval)
				}
				outstanding.Add(-1)
			}
		}
	}

	tallies := make([]tally, w.producers)
	var wg sync.WaitGroup
	for p := 0; p < w.producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			id := tr.begin(fmt.Sprintf("serve.pacer[%d]", p), root)
			defer tr.end(id)
			set, t := env.sets[p], &tallies[p]
			t.accepted = int64(pace(start, interval, lag[p], wd, func(i int) {
				st := set[i%len(set)]
				v := st.nextValue()
				outstanding.Add(1)
				for tries := 0; ; tries++ {
					var t0 time.Time
					if tr != nil {
						t0 = time.Now()
					}
					err := st.h.Submit(v, st.reply)
					if tr != nil {
						t.submitNS += int64(time.Since(t0))
					}
					t.calls++
					if err == nil {
						return
					}
					t.rejected++
					if !errors.Is(err, serve.ErrBacklog) || tries >= submitRetries {
						// Given up: the station's later verdicts land one
						// slot early, which the run already fails for.
						t.gaveUp++
						outstanding.Add(-1)
						return
					}
					runtime.Gosched()
				}
			}))
		}(p)
	}
	wg.Wait()
	for outstanding.Load() > 0 && !wd.hasExpired() {
		time.Sleep(100 * time.Microsecond)
	}
	out.wall = time.Since(start).Seconds()
	tr.end(root)

	var sum tally
	for p := range tallies {
		sum.add(tallies[p])
	}
	// Merge the producers' slots in due order (slot i of every producer
	// falls due at the same instant).
	merged := make([]float64, 0, perProducer*w.producers)
	lags := make([]float64, 0, perProducer*w.producers)
	var lost, late int64
	for i := 0; i < perProducer; i++ {
		for p := 0; p < w.producers; p++ {
			if int64(i) >= tallies[p].accepted {
				continue
			}
			d := lat[p][i]
			switch {
			case d == 0:
				lost++
				d = math.MaxInt64 / 2 // a missing verdict misses every limit
			case d > int64(latencyLimit):
				late++
			}
			merged = append(merged, float64(d))
			lags = append(lags, float64(lag[p][i]))
		}
	}
	lost -= sum.gaveUp // given-up points are counted on their own
	if lost < 0 {
		lost = 0
	}
	out.attempted = sum.accepted
	if lost > 0 {
		out.fail(lost, "%d accepted points got no verdict", lost)
	}
	if sum.gaveUp > 0 {
		out.fail(sum.gaveUp, "%d points rejected past the retry budget", sum.gaveUp)
	}
	slices := int(seconds / latencySlice.Seconds())
	p50 := typicalQuantile(merged, slices, 0.5) / 1e3
	p99 := typicalQuantile(merged, slices, 0.99) / 1e3
	limitUS := float64(latencyLimit / time.Microsecond)
	switch {
	case p99 >= math.MaxInt64/2/1e3:
		out.problem("verdict p99 is a verdict that never arrived")
	case p99 > limitUS:
		out.fail(late, "verdict p99 %.0f µs misses the %v limit (%d verdicts later than it)", p99, latencyLimit, late)
	}
	out.e2e["verdict_p50_us"] = p50
	out.e2e["verdict_p99_us"] = p99
	delivered := sum.accepted - sum.gaveUp - lost
	out.e2e["points_per_s"] = float64(delivered) / out.wall
	out.speed = 1 / p50

	lagP99 := typicalQuantile(lags, slices, 0.99) / 1e3
	if lagP99 > limitUS {
		// The generator itself could not keep the schedule: the latency
		// figures say nothing about the service.
		out.fail(1, "invalid run: the load generator ran %.0f µs late at p99, beyond the latency limit", lagP99)
	}
	sorted := append([]float64(nil), merged...)
	sort.Float64s(sorted)
	q := highestSupportedQuantile(len(sorted))
	out.note("verdict latency: %d samples, p50 %.1f µs, p99 %.1f µs (typical of %d slices of %v); whole run: p99 %.1f µs, p%g %.1f µs, max %.1f µs, %d later than %v",
		len(sorted), p50, p99, slices, latencySlice, percentileSorted(sorted, 0.99)/1e3, q*100, percentileSorted(sorted, q)/1e3, sorted[len(sorted)-1]/1e3, late, latencyLimit)

	after := env.svc.Stats()
	serveLayerCounts(out.layer, before, after, sum.calls, lost)
	out.layer["loadgen.offered_pts_s"] = float64(sum.accepted) / (float64(perProducer) * interval / 1e9)
	out.layer["loadgen.lag_p99_us"] = lagP99
	if tr != nil && sum.accepted > 0 {
		var mem1 runtime.MemStats
		runtime.ReadMemStats(&mem1)
		out.layer["serve.allocs_per_point"] = float64(mem1.Mallocs-mem0.Mallocs) / float64(sum.accepted)
		out.layer["serve.submit_ns"] = float64(sum.submitNS) / float64(sum.accepted)
	}
	return out
}

func (w *serveWorkload) probes(layer map[string]float64) {
	computeProbes(layer, w.o.seed)
}
