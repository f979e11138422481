// Package serve is the always-on scoring layer over the batch substrate:
// a sharded service that ingests per-station charging observations (in
// process or over the federation's binary wire framing), routes every
// station to a shard-owned streaming detector, and emits per-point
// anomaly verdicts with optional reconstruction-based mitigation — the
// paper's detection pipeline turned into a deployable online system.
//
// Architecture (DESIGN.md §9, multi-core ingress and wave splitting §12):
//
//   - Stations hash onto shards. Each shard is one goroutine owning a
//     bounded MPSC ingress ring plus every assigned station's look-back
//     ring (anomaly.Ring) and its private scorers; nothing on the scoring
//     hot path takes a lock or is shared across shards.
//   - Submission is contention-hardened: producers publish into the
//     shard's ingress ring with one tail CAS (a batch of observations
//     reserves its slots with a single CAS), repeat submitters hold a
//     Station handle that skips the registry lookup entirely, and the
//     parked-consumer wake protocol makes the ring lock- and
//     channel-free in steady state.
//   - A shard drains its ring in waves, and every wave's full windows —
//     one window or hundreds — are scored through the batched GEMM
//     inference path (autoencoder.BatchScorer, in power-of-two chunks).
//     The kernels are row-invariant, so a window's score does not depend
//     on the wave it lands in: a station fed point by point gets the
//     same bits as one fed in bulk next to hundreds of others.
//   - A hot shard (skewed station hash) splits the scoring half of an
//     oversized wave over its parked siblings' cores (split.go): only the
//     pure inference pass moves — rings, mitigation rewrites and verdict
//     delivery stay with the owner, so per-station order and index
//     contiguity are preserved by construction.
//   - Backpressure is structural: a full ingress ring rejects Submit with
//     ErrBacklog instead of growing, so a producer outrunning a shard
//     costs bounded memory.
//   - Hot model reload is copy-on-write: Reload publishes a fresh
//     detector + threshold via one atomic pointer swap. Shards pick the
//     new model up at their next drain; observations already drained
//     finish on the weights they started with, so no in-flight window is
//     ever dropped or torn across models.
//   - Every verdict's submit→delivery latency lands in an O(1) fixed-bin
//     histogram (hist.go); Stats and GET /stats report p50/p90/p99/p999
//     from it at any time without sampling or sorting.
package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/evfed/evfed/internal/anomaly"
	"github.com/evfed/evfed/internal/autoencoder"
	"github.com/evfed/evfed/internal/mat"
)

// Errors returned by the package.
var (
	ErrBadConfig = errors.New("serve: invalid configuration")
	ErrClosed    = errors.New("serve: service closed")
	// ErrBacklog reports a full shard queue: the producer outran the
	// shard and should retry after a backoff (the wire server waits it
	// out).
	ErrBacklog = errors.New("serve: shard backlog full")
	// ErrReload reports a rejected model reload (dimension or window
	// mismatch, untrained detector).
	ErrReload = errors.New("serve: reload rejected")
	// ErrBadWeights reports a weight payload containing NaN/Inf entries —
	// installing it would serve non-finite scores (every threshold
	// comparison false), so it is rejected at reload and staging alike
	// (HTTP maps it to 400).
	ErrBadWeights = errors.New("serve: non-finite weights")
	// ErrRollout reports a rejected canary-rollout operation (subsystem
	// disabled, no candidate staged, invalid candidate).
	ErrRollout = errors.New("serve: rollout rejected")
	// ErrStationLimit reports a submission for a new station beyond
	// Config.MaxStations.
	ErrStationLimit = errors.New("serve: station limit reached")
)

// Config parameterizes a scoring service.
type Config struct {
	// Detector is the initially served model (required, trained).
	Detector *autoencoder.Detector
	// Threshold is the calibrated detection threshold scores are judged
	// against (required, > 0); Filter.Threshold after offline
	// calibration, or the persisted value from evfeddetect -save-model.
	Threshold float64
	// Shards is the number of scoring shards (goroutines). 0 = GOMAXPROCS.
	Shards int
	// QueueDepth bounds each shard's pending-task ingress ring; a full
	// ring rejects Submit with ErrBacklog. Rounded up to a power of two
	// (the ring's index math requires it). 0 = 1024.
	QueueDepth int
	// Mitigate substitutes a flagged observation's reconstruction for its
	// raw value — in the emitted verdict and in the station's look-back
	// window, so an attack burst cannot poison the windows that judge the
	// points after it (the streaming analogue of the paper's
	// interpolation mitigation).
	Mitigate bool
	// MaxStations bounds the number of distinct stations the service
	// will track (each costs a permanent ring + registry entry, so an
	// unbounded registry would let a producer inventing station names
	// defeat the bounded-memory contract). Submissions for new stations
	// beyond the limit fail with ErrStationLimit. 0 = 65536.
	MaxStations int
	// IdleTTL evicts stations with no submission for this long (0
	// disables eviction), so the registry stops growing without bound
	// under churning station populations. Eviction is advisory, not a
	// barrier: a station evicted with observations still queued gets
	// every verdict it was promised, and a station re-created after
	// eviction starts a fresh window with indices from 0.
	IdleTTL time.Duration
	// Rollout parameterizes staged canary rollout of candidate models
	// (see RolloutConfig); zero-valued = disabled.
	Rollout RolloutConfig
}

// Verdict is the service's decision for one observation.
type Verdict struct {
	// Station identifies the observation's station.
	Station string
	// StreamDecision carries index, score, flagged and readiness, with
	// the same semantics as the single-feed anomaly.Stream.
	anomaly.StreamDecision
	// Value is the raw observation.
	Value float64
	// Mitigated is the value to forward downstream: the reconstruction
	// when the point was flagged and mitigation is on, Value otherwise.
	Mitigated float64
	// Epoch is the model epoch that scored the observation (bumped by
	// every hot reload; warm-up verdicts carry the epoch current at
	// ingestion).
	Epoch int
	// Canary marks a verdict served live by the canary candidate (the
	// station is in the rollout cohort); Epoch still reports the
	// incumbent epoch, keeping per-station epochs monotone across
	// promotion and rollback alike.
	Canary bool
}

// Stats is a point-in-time snapshot of service counters.
type Stats struct {
	// Points is the number of verdicts delivered.
	Points uint64
	// Warmup counts verdicts emitted while a station's window was still
	// filling (never flagged).
	Warmup uint64
	// Flagged counts verdicts over threshold.
	Flagged uint64
	// BatchCalls and BatchedWindows count batched scoring passes (one per
	// wave) and the windows they covered. SingleWindows always reads 0:
	// every wave is scored batched; the field is kept for existing
	// readers.
	BatchCalls     uint64
	BatchedWindows uint64
	SingleWindows  uint64
	// Rejected counts Submit calls bounced with ErrBacklog.
	Rejected uint64
	// Stations is the number of distinct stations currently tracked.
	Stations uint64
	// Evicted counts stations removed by idle eviction (Config.IdleTTL).
	Evicted uint64
	// ShadowWindows counts windows candidate-scored in shadow (recorded,
	// not emitted); CanaryServed counts verdicts the candidate served
	// live to its cohort.
	ShadowWindows uint64
	CanaryServed  uint64
	// StealOffered counts wave chunks hot shards forked onto their parked
	// siblings' cores (split.go). StealStolen always equals it: every
	// forked chunk is scored off the owner. Both keep their names for
	// existing readers.
	StealOffered uint64
	StealStolen  uint64
	// Latency percentiles of the submit→verdict path in microseconds,
	// read from the O(1) fixed-bin histogram (≤ ~6.25% relative bin
	// error; see hist.go). Zero until the first verdict.
	LatencyP50Micros  float64
	LatencyP90Micros  float64
	LatencyP99Micros  float64
	LatencyP999Micros float64
	// Epoch is the serving model epoch (starts at 1, +1 per reload).
	Epoch int
	// Shards echoes the shard count.
	Shards int
}

// modelState is the immutable unit of copy-on-write reload.
type modelState struct {
	det       *autoencoder.Detector
	threshold float64
	epoch     int
}

// task is one queued observation. index is scratch for the shard's
// scoring pass (the ring index assigned at push time); t0 is the submit
// timestamp (nanoseconds since the service's base) feeding the latency
// histogram.
type task struct {
	st    *station
	value float64
	reply func(Verdict)
	index int
	t0    int64
}

// station is one charging station's streaming state. The ring and wave
// marker are owned by the station's shard goroutine; name, hash and
// shard are immutable after creation. lastSeen (idle eviction) and dead
// (set at eviction so cached Station handles re-resolve) are the only
// cross-goroutine mutable fields.
type station struct {
	name     string
	hash     uint32 // FNV-32a of name: shard assignment + canary cohort
	shard    *shard
	ring     *anomaly.Ring
	wave     uint64
	lastSeen atomic.Int64 // UnixNano of the last Submit (IdleTTL > 0 only)
	dead     atomic.Bool  // evicted; handles must re-resolve
}

// Service is a sharded online scoring service. Submit may be called from
// any number of goroutines; Close drains and stops the shards.
type Service struct {
	cfg      Config
	base     time.Time // monotonic origin for latency stamps
	state    atomic.Pointer[modelState]
	cand     atomic.Pointer[candidateState] // staged canary candidate (nil = none)
	roll     *rollout                       // nil when Rollout.Enabled is false
	shards   []*shard
	stations sync.Map // station name → *station
	nStation atomic.Uint64
	evicted  atomic.Uint64

	closedFlag atomic.Bool // submit-path fast check; authoritative per-shard

	reloadMu  sync.Mutex // serializes Reload epoch bumps
	mu        sync.Mutex // Close idempotency
	closed    bool
	stopSweep chan struct{} // idle-eviction sweeper shutdown (nil if disabled)
	wg        sync.WaitGroup
}

// New validates cfg, spawns the shards and returns a running service.
func New(cfg Config) (*Service, error) {
	if cfg.Detector == nil || cfg.Detector.Model() == nil {
		return nil, fmt.Errorf("%w: nil or untrained detector", ErrBadConfig)
	}
	if !(cfg.Threshold > 0) {
		return nil, fmt.Errorf("%w: threshold %v", ErrBadConfig, cfg.Threshold)
	}
	if cfg.Shards < 0 || cfg.QueueDepth < 0 || cfg.MaxStations < 0 {
		return nil, fmt.Errorf("%w: shards %d, queue depth %d, max stations %d",
			ErrBadConfig, cfg.Shards, cfg.QueueDepth, cfg.MaxStations)
	}
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.MaxStations == 0 {
		cfg.MaxStations = 65536
	}
	if cfg.IdleTTL < 0 {
		return nil, fmt.Errorf("%w: idle TTL %v", ErrBadConfig, cfg.IdleTTL)
	}
	if cfg.Rollout.Enabled {
		cfg.Rollout = cfg.Rollout.withDefaults()
		if err := cfg.Rollout.validate(); err != nil {
			return nil, err
		}
	}
	s := &Service{cfg: cfg, base: time.Now()}
	s.state.Store(&modelState{det: cfg.Detector, threshold: cfg.Threshold, epoch: 1})
	maxDrain := min(cfg.QueueDepth, 512)
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			svc:  s,
			q:    newMPSC(cfg.QueueDepth),
			cur:  make([]task, 0, maxDrain),
			next: make([]task, 0, maxDrain),
			div:  &divWindow{},
		}
		s.shards = append(s.shards, sh)
	}
	// Start the goroutines only once the shard slice is complete: a
	// splitting shard scans s.shards for parked siblings.
	for _, sh := range s.shards {
		s.wg.Add(1)
		go sh.loop()
	}
	if cfg.Rollout.Enabled {
		s.roll = newRollout(s, cfg.Rollout)
	}
	if cfg.IdleTTL > 0 {
		s.stopSweep = make(chan struct{})
		s.wg.Add(1)
		go s.sweepLoop()
	}
	return s, nil
}

// SeqLen returns the serving window length (fixed for the service's
// lifetime; reloads must match it).
func (s *Service) SeqLen() int { return s.state.Load().det.Config().SeqLen }

// Epoch returns the serving model epoch.
func (s *Service) Epoch() int { return s.state.Load().epoch }

// Threshold returns the serving detection threshold.
func (s *Service) Threshold() float64 { return s.state.Load().threshold }

// Weights returns a copy of the serving detector's weight vector (e.g.
// to warm-start a federation from the deployed model).
func (s *Service) Weights() []float64 { return s.state.Load().det.Model().WeightsVector() }

// sinceBase is the monotonic nanosecond stamp behind latency accounting.
func (s *Service) sinceBase() int64 { return int64(time.Since(s.base)) }

// Submit enqueues one observation for scoring. reply is invoked exactly
// once with the verdict, on the owning shard's goroutine — it must not
// block for long (a stalled reply stalls that shard, which is the
// backpressure contract working as intended). Submit never blocks: a full
// shard queue returns ErrBacklog and drops nothing already accepted.
//
// Submit resolves stationName in the registry on every call; a
// steady-state producer should hold a Station handle instead, which
// skips the lookup entirely.
func (s *Service) Submit(stationName string, value float64, reply func(Verdict)) error {
	if reply == nil {
		return fmt.Errorf("%w: nil reply", ErrBadConfig)
	}
	if s.closedFlag.Load() {
		return ErrClosed
	}
	st, err := s.lookupStation(stationName)
	if err != nil {
		return err
	}
	return s.submitTo(st, value, reply)
}

// submitTo is the shared lookup-free submit path. The per-shard inflight
// count brackets the enqueue so Close can wait out in-flight producers
// before telling the shard goroutine to exit — no lock on the hot path.
func (s *Service) submitTo(st *station, value float64, reply func(Verdict)) error {
	sh := st.shard
	sh.inflight.Add(1)
	if s.closedFlag.Load() {
		sh.inflight.Add(-1)
		return ErrClosed
	}
	if s.cfg.IdleTTL > 0 {
		st.lastSeen.Store(time.Now().UnixNano())
	}
	ok := sh.q.enqueue(task{st: st, value: value, reply: reply, t0: s.sinceBase()})
	if !ok {
		sh.inflight.Add(-1)
		sh.rejected.Add(1)
		return ErrBacklog
	}
	sh.q.wakeProducerSide()
	sh.inflight.Add(-1)
	return nil
}

// Station resolves (or creates) the named station and returns a reusable
// submission handle. Steady-state submits through the handle are
// registry-lookup-free and allocation-free; after idle eviction the
// handle transparently re-resolves (re-creating the station, fresh
// window, indices from 0 — the documented eviction semantics). A handle
// is safe for concurrent use.
func (s *Service) Station(name string) (*Station, error) {
	st, err := s.lookupStation(name)
	if err != nil {
		return nil, err
	}
	h := &Station{svc: s, name: name}
	h.st.Store(st)
	return h, nil
}

// Station is a cached per-station submission handle (see
// Service.Station).
type Station struct {
	svc  *Service
	name string
	st   atomic.Pointer[station]
}

// Name returns the station name the handle resolves.
func (h *Station) Name() string { return h.name }

// resolve returns the live station, re-resolving after eviction.
func (h *Station) resolve() (*station, error) {
	st := h.st.Load()
	if st.dead.Load() {
		fresh, err := h.svc.lookupStation(h.name)
		if err != nil {
			return nil, err
		}
		h.st.Store(fresh)
		st = fresh
	}
	return st, nil
}

// Submit enqueues one observation for the handle's station — the
// lookup-free fast path of Service.Submit, with identical semantics.
func (h *Station) Submit(value float64, reply func(Verdict)) error {
	if reply == nil {
		return fmt.Errorf("%w: nil reply", ErrBadConfig)
	}
	if h.svc.closedFlag.Load() {
		return ErrClosed
	}
	st, err := h.resolve()
	if err != nil {
		return err
	}
	return h.svc.submitTo(st, value, reply)
}

// SubmitN enqueues a batch of consecutive observations for the handle's
// station, resolving the station and stamping the submit time once for
// the whole batch. reply is invoked once per accepted observation, in
// submission order. It returns how many observations were accepted:
// n == len(values) on success; 0 ≤ n < len(values) with ErrBacklog when
// the shard's ring filled part-way (the accepted prefix is in flight and
// will get its verdicts; resubmit the rest after a backoff).
func (h *Station) SubmitN(values []float64, reply func(Verdict)) (int, error) {
	if reply == nil {
		return 0, fmt.Errorf("%w: nil reply", ErrBadConfig)
	}
	if len(values) == 0 {
		return 0, nil
	}
	if h.svc.closedFlag.Load() {
		return 0, ErrClosed
	}
	st, err := h.resolve()
	if err != nil {
		return 0, err
	}
	sh := st.shard
	sh.inflight.Add(1)
	if h.svc.closedFlag.Load() {
		sh.inflight.Add(-1)
		return 0, ErrClosed
	}
	if h.svc.cfg.IdleTTL > 0 {
		st.lastSeen.Store(time.Now().UnixNano())
	}
	n := sh.q.enqueueBatch(st, values, reply, h.svc.sinceBase())
	if n > 0 {
		sh.q.wakeProducerSide()
	}
	sh.inflight.Add(-1)
	if n < len(values) {
		sh.rejected.Add(1)
		return n, ErrBacklog
	}
	return n, nil
}

// lookupStation resolves (or creates) the named station.
func (s *Service) lookupStation(name string) (*station, error) {
	if v, ok := s.stations.Load(name); ok {
		return v.(*station), nil
	}
	if name == "" {
		return nil, fmt.Errorf("%w: empty station name", ErrBadConfig)
	}
	if s.nStation.Load() >= uint64(s.cfg.MaxStations) {
		// Concurrent creations may overshoot by at most shards-in-flight;
		// the point is bounding a producer that invents station names.
		return nil, fmt.Errorf("%w: %d stations", ErrStationLimit, s.cfg.MaxStations)
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	ring, err := anomaly.NewRing(s.SeqLen())
	if err != nil {
		return nil, err
	}
	hash := h.Sum32()
	st := &station{name: name, hash: hash, shard: s.shards[hash%uint32(len(s.shards))], ring: ring}
	st.lastSeen.Store(time.Now().UnixNano())
	if v, loaded := s.stations.LoadOrStore(name, st); loaded {
		return v.(*station), nil
	}
	s.nStation.Add(1)
	return st, nil
}

// sweepLoop evicts stations idle past Config.IdleTTL. Eviction races
// benignly with submission: a losing Submit re-creates the station (fresh
// ring, indices from 0) and an evicted station's queued observations
// still get their verdicts (the shard holds the pointer). The dead flag
// is set before the registry delete so cached handles re-resolve instead
// of submitting into an unregistered station forever.
func (s *Service) sweepLoop() {
	defer s.wg.Done()
	interval := s.cfg.IdleTTL / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stopSweep:
			return
		case <-tick.C:
			now := time.Now().UnixNano()
			s.stations.Range(func(key, v any) bool {
				st := v.(*station)
				if now-st.lastSeen.Load() > int64(s.cfg.IdleTTL) {
					st.dead.Store(true)
					s.stations.Delete(key)
					s.nStation.Add(^uint64(0))
					s.evicted.Add(1)
				}
				return true
			})
		}
	}
}

// Reload atomically swaps the serving model and threshold (copy-on-write:
// the current model keeps scoring until every shard's next drain).
// threshold ≤ 0 keeps the current threshold. The detector must be trained
// and share the serving window length; its weights may be anything —
// typically the federated coordinator's latest post-round broadcast.
// Returns the new model epoch.
func (s *Service) Reload(det *autoencoder.Detector, threshold float64) (int, error) {
	if det == nil || det.Model() == nil {
		return 0, fmt.Errorf("%w: nil or untrained detector", ErrReload)
	}
	if i := mat.FirstNonFinite(det.Model().WeightsVector()); i >= 0 {
		// A NaN weight propagates into every score it touches and a NaN
		// score defeats flagging (all comparisons false) — never install it.
		return 0, fmt.Errorf("%w: non-finite weight at index %d", ErrBadWeights, i)
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	cur := s.state.Load()
	if det.Config().SeqLen != cur.det.Config().SeqLen {
		return 0, fmt.Errorf("%w: window length %d, serving %d",
			ErrReload, det.Config().SeqLen, cur.det.Config().SeqLen)
	}
	if !(threshold > 0) {
		// Covers ≤ 0 and NaN (a NaN threshold would silently disable
		// flagging: every score comparison is false).
		threshold = cur.threshold
	}
	next := &modelState{det: det, threshold: threshold, epoch: cur.epoch + 1}
	s.state.Store(next)
	return next.epoch, nil
}

// ReloadWeights is Reload from a flat weight vector: a fresh detector
// with the serving configuration is built around a private copy of
// weights (the caller may reuse its buffer). This is the entry point the
// federated coordinator's OnRound hook and the wire MsgReload push
// use. The vector's dimension must match the serving architecture.
func (s *Service) ReloadWeights(weights []float64, threshold float64) (int, error) {
	if i := mat.FirstNonFinite(weights); i >= 0 {
		return 0, fmt.Errorf("%w: non-finite weight at index %d", ErrBadWeights, i)
	}
	det, err := autoencoder.FromWeights(s.state.Load().det.Config(), weights)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrReload, err)
	}
	return s.Reload(det, threshold)
}

// Snapshot returns the serving detector and threshold — e.g. to persist
// the last-promoted model across a restart (autoencoder.SaveCalibrated).
func (s *Service) Snapshot() (*autoencoder.Detector, float64) {
	st := s.state.Load()
	return st.det, st.threshold
}

// Stats returns a snapshot of the service counters, including the
// latency percentiles folded from every shard's fixed-bin histogram.
func (s *Service) Stats() Stats {
	out := Stats{
		Stations: s.nStation.Load(),
		Evicted:  s.evicted.Load(),
		Epoch:    s.Epoch(),
		Shards:   len(s.shards),
	}
	var merged [histBuckets]uint64
	for _, sh := range s.shards {
		out.Points += sh.points.Load()
		out.Warmup += sh.warmup.Load()
		out.Flagged += sh.flagged.Load()
		out.BatchCalls += sh.batchCalls.Load()
		out.BatchedWindows += sh.batchedWin.Load()
		out.ShadowWindows += sh.shadowWin.Load()
		out.CanaryServed += sh.canaryServed.Load()
		out.Rejected += sh.rejected.Load()
		out.StealOffered += sh.stealOffered.Load()
		sh.hist.mergeInto(&merged)
	}
	out.StealStolen = out.StealOffered
	var total uint64
	for _, c := range merged {
		total += c
	}
	out.LatencyP50Micros = histQuantile(&merged, total, 0.50)
	out.LatencyP90Micros = histQuantile(&merged, total, 0.90)
	out.LatencyP99Micros = histQuantile(&merged, total, 0.99)
	out.LatencyP999Micros = histQuantile(&merged, total, 0.999)
	return out
}

// Close stops accepting observations, drains every shard's ingress ring
// (each already-accepted observation still gets its verdict) and joins
// the shard goroutines. Close is idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.closedFlag.Store(true)
	// Wait out producers already past the closed check; their enqueues
	// are bracketed by the per-shard inflight count and complete in
	// nanoseconds, after which no new task can appear.
	for _, sh := range s.shards {
		for sh.inflight.Load() != 0 {
			runtime.Gosched()
		}
	}
	for _, sh := range s.shards {
		sh.closed.Store(true)
		sh.q.forceWake()
	}
	if s.stopSweep != nil {
		close(s.stopSweep)
	}
	s.wg.Wait()
}

// shard is one scoring goroutine: it owns its ingress ring, its stations'
// look-back rings and its scorers. Producer-written fields (inflight,
// rejected) are padded away from the consumer's state so multi-producer
// submission does not false-share with the drain loop; everything below
// the padding is touched only by the shard goroutine, except the atomic
// counters (read by Stats) and the parked flag a splitting sibling reads.
type shard struct {
	svc *Service
	q   *mpsc

	inflight atomic.Int64  // producers inside submit (Close waits these out)
	rejected atomic.Uint64 // producer-side ErrBacklog count
	_        [cacheLine - 24]byte

	closed atomic.Bool // set by Close after inflight drains

	epoch   int
	batch   *autoencoder.BatchScorer
	waveSeq uint64

	// candidate generation scorer + divergence window (canary rollout)
	div        *divWindow
	candGen    uint64
	candBatch  *autoencoder.BatchScorer
	candThr    float64
	shadowTick uint64
	nEmit      int

	// wave-split forks (split.go): one scorer per fork slot, built on
	// first use and dropped on a model epoch change; forkErr is written
	// by fork k and read after the join
	helpers [maxOffers]*autoencoder.BatchScorer
	forkErr [maxOffers]error
	forks   sync.WaitGroup

	// reusable scratch
	cur, next []task
	ready     []int // indices into the wave with full windows
	windows   [][]float64
	scores    []float64
	recons    []float64
	// candidate-side scratch: candIdx indexes into ready, emitCanary is
	// per-ready-window (cohort verdicts served by the candidate)
	candIdx     []int
	candWindows [][]float64
	candScores  []float64
	candRecons  []float64
	emitCanary  []bool

	points       atomic.Uint64
	warmup       atomic.Uint64
	flagged      atomic.Uint64
	batchCalls   atomic.Uint64
	batchedWin   atomic.Uint64
	shadowWin    atomic.Uint64
	canaryServed atomic.Uint64
	stealOffered atomic.Uint64

	hist latHist
}

// loop drains the ingress ring until the service closes. Each drain cycle
// gathers up to cap(cur) pending tasks, loads the serving model once
// (the copy-on-write reload boundary: everything drained in this cycle
// scores on this model), and processes the tasks in waves. An empty ring
// parks the goroutine (idle).
func (sh *shard) loop() {
	defer sh.svc.wg.Done()
	for {
		sh.cur = sh.cur[:0]
		for len(sh.cur) < cap(sh.cur) {
			t, ok := sh.q.dequeue()
			if !ok {
				break
			}
			sh.cur = append(sh.cur, t)
		}
		if len(sh.cur) == 0 {
			if sh.idle() {
				return
			}
			continue
		}
		sh.drain()
	}
}

// idle parks the shard until new work arrives. It returns true when the
// service has closed and the ring is fully drained (the goroutine should
// exit). The parked-flag/recheck ordering pairs with
// mpsc.wakeProducerSide: either the producer sees parked and sends the
// token, or the pre-sleep recheck sees the task.
func (sh *shard) idle() (done bool) {
	sh.q.parked.Store(true)
	defer sh.q.parked.Store(false)
	if !sh.q.empty() {
		return false
	}
	if sh.closed.Load() {
		return sh.q.empty()
	}
	<-sh.q.wake
	return false
}

// drain processes sh.cur. Tasks are split into waves holding at most one
// observation per station, so a station's look-back window is fully
// updated (including mitigation rewrites) before its next observation is
// judged — wave scoring is decision-for-decision identical to pushing the
// shard's tasks through per-station anomaly.Streams one at a time.
func (sh *shard) drain() {
	state := sh.svc.state.Load()
	if state.epoch != sh.epoch {
		sh.batch = state.det.NewBatchScorer()
		sh.helpers = [maxOffers]*autoencoder.BatchScorer{}
		sh.epoch = state.epoch
	}
	cur := sh.cur
	for len(cur) > 0 {
		sh.waveSeq++
		w := 0
		deferred := sh.next[:0]
		for _, t := range cur {
			if t.st.wave == sh.waveSeq {
				deferred = append(deferred, t)
			} else {
				t.st.wave = sh.waveSeq
				cur[w] = t
				w++
			}
		}
		sh.wave(cur[:w], state)
		// Deferred same-station tasks become the next wave's input; they
		// are copied back so cur and sh.next keep distinct backing arrays
		// across drains.
		cur = cur[:copy(cur[:len(deferred)], deferred)]
		sh.next = deferred[:0]
	}
}

// wave pushes each task's observation into its station's ring, scores
// the full windows in one batched call (split over parked siblings at
// 2×minChunk windows), and delivers verdicts.
func (sh *shard) wave(wave []task, state *modelState) {
	sh.ready = sh.ready[:0]
	sh.windows = sh.windows[:0]
	now := sh.svc.sinceBase()
	for i := range wave {
		t := &wave[i]
		idx, window, ok := t.st.ring.Push(t.value)
		if !ok {
			sh.warmup.Add(1)
			sh.points.Add(1)
			sh.hist.observe(now - t.t0)
			t.reply(Verdict{
				Station:        t.st.name,
				StreamDecision: anomaly.StreamDecision{Index: idx},
				Value:          t.value,
				Mitigated:      t.value,
				Epoch:          state.epoch,
			})
			continue
		}
		// Stash the index in the task slot for the scoring pass below.
		t.index = idx
		sh.ready = append(sh.ready, i)
		sh.windows = append(sh.windows, window)
	}
	n := len(sh.ready)
	if n == 0 {
		return
	}
	if cap(sh.scores) < n {
		sh.scores = make([]float64, n)
		sh.recons = make([]float64, n)
	}
	scores, recons := sh.scores[:n], sh.recons[:n]
	err := sh.scoreWave(state, scores, recons)
	sh.batchCalls.Add(1)
	sh.batchedWin.Add(uint64(n))
	sh.nEmit = 0
	cand := sh.svc.cand.Load()
	if cand != nil && err == nil {
		// Candidate pass: shadow-score sampled windows and, in the canary
		// phase, overwrite the cohort's scores/recons so they are served
		// by the candidate below. Runs before delivery, while the ring
		// window aliases are still valid.
		sh.shadow(wave, state, cand, scores, recons)
	}
	done := sh.svc.sinceBase()
	for k, i := range sh.ready {
		t := &wave[i]
		if err != nil {
			// Scoring failure (cannot happen with a validated model, but
			// the verdict contract is one reply per submit): report the
			// point unjudged.
			sh.points.Add(1)
			sh.hist.observe(done - t.t0)
			t.reply(Verdict{
				Station:        t.st.name,
				StreamDecision: anomaly.StreamDecision{Index: t.index},
				Value:          t.value,
				Mitigated:      t.value,
				Epoch:          state.epoch,
			})
			continue
		}
		threshold := state.threshold
		canary := false
		if sh.nEmit > 0 && sh.emitCanary[k] {
			// Candidate-served cohort verdict: the candidate's score and
			// threshold, the incumbent's epoch (per-station epochs stay
			// monotone whether the candidate is promoted or rolled back).
			threshold = sh.candThr
			canary = true
		}
		v := Verdict{
			Station: t.st.name,
			StreamDecision: anomaly.StreamDecision{
				Index:   t.index,
				Score:   scores[k],
				Flagged: scores[k] > threshold,
				Ready:   true,
			},
			Value:     t.value,
			Mitigated: t.value,
			Epoch:     state.epoch,
			Canary:    canary,
		}
		if v.Flagged {
			sh.flagged.Add(1)
			if sh.svc.cfg.Mitigate {
				v.Mitigated = recons[k]
				t.st.ring.AmendLast(recons[k])
			}
		}
		sh.points.Add(1)
		sh.hist.observe(done - t.t0)
		t.reply(v)
	}
}

// shadow is the candidate generation's scoring pass over one wave: it
// selects the windows the candidate judges (the whole cohort during
// canary, every SampleEvery-th other window), scores them on the
// candidate's scorer, records every incumbent/candidate pair into the
// shard's divergence window, and marks cohort entries for candidate
// delivery (their scores/recons are overwritten in place).
func (sh *shard) shadow(wave []task, state *modelState, cand *candidateState, scores, recons []float64) {
	if sh.candGen != cand.gen {
		sh.candBatch = cand.det.NewBatchScorer()
		sh.candGen = cand.gen
	}
	n := len(sh.ready)
	if cap(sh.emitCanary) < n {
		sh.emitCanary = make([]bool, n)
	}
	// Re-slice the field itself: the delivery loop indexes it up to n.
	sh.emitCanary = sh.emitCanary[:n]
	emit := sh.emitCanary
	for i := range emit {
		emit[i] = false
	}
	sh.candIdx = sh.candIdx[:0]
	sh.candWindows = sh.candWindows[:0]
	every := uint64(sh.svc.cfg.Rollout.SampleEvery)
	for k, i := range sh.ready {
		if cand.phase == PhaseCanary && wave[i].st.hash%cohortModulus < cand.cohortLimit {
			sh.candIdx = append(sh.candIdx, k)
			sh.candWindows = append(sh.candWindows, sh.windows[k])
			emit[k] = true
			continue
		}
		sh.shadowTick++
		if sh.shadowTick%every == 0 {
			sh.candIdx = append(sh.candIdx, k)
			sh.candWindows = append(sh.candWindows, sh.windows[k])
		}
	}
	m := len(sh.candIdx)
	if m == 0 {
		return
	}
	if cap(sh.candScores) < m {
		sh.candScores = make([]float64, m)
		sh.candRecons = make([]float64, m)
	}
	cs, cr := sh.candScores[:m], sh.candRecons[:m]
	if err := sh.candBatch.ScoreLastInto(cs, cr, sh.candWindows); err != nil {
		// A candidate that cannot score is a divergent candidate: emit
		// nothing from it and record the failure as a non-finite sample.
		for i := range emit {
			emit[i] = false
		}
		sh.div.observe(cand.gen, 0, math.NaN(), false, false)
		sh.svc.roll.noteSamples(1)
		return
	}
	emitted := 0
	for j, k := range sh.candIdx {
		sh.div.observe(cand.gen, scores[k], cs[j],
			scores[k] > state.threshold, cs[j] > cand.threshold)
		if emit[k] {
			scores[k], recons[k] = cs[j], cr[j]
			emitted++
		}
	}
	sh.candThr = cand.threshold
	sh.nEmit = emitted
	sh.shadowWin.Add(uint64(m - emitted))
	sh.canaryServed.Add(uint64(emitted))
	sh.svc.roll.noteSamples(m)
}
