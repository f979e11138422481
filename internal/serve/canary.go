package serve

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"github.com/evfed/evfed/internal/autoencoder"
	"github.com/evfed/evfed/internal/mat"
)

// Canary model rollout (DESIGN.md §10). Instead of swapping a freshly
// federated round fleet-wide, Stage parks it as a *candidate* generation
// next to the serving incumbent. Shards shadow-score a sampled fraction
// of live traffic on the candidate (verdicts recorded for divergence
// accounting, never emitted), and the rollout state machine walks
//
//	shadow → canary(cohort %) → promoted
//
// auto-promoting when the candidate stays within DivergenceConfig's
// budgets and auto-rolling-back (incumbent keeps serving, candidate is
// quarantined with a reason) the moment it leaves them. During the
// canary stage a station cohort — selected by the same FNV hash that
// assigns shards — receives the candidate's verdicts live, so promotion
// is preceded by real exposure that never exceeds CanaryFraction of
// stations.

// RolloutPhase is a candidate's position in the rollout state machine.
type RolloutPhase uint8

// Rollout phases.
const (
	// PhaseNone means no candidate is staged.
	PhaseNone RolloutPhase = iota
	// PhaseShadow: the candidate scores sampled traffic invisibly.
	PhaseShadow
	// PhaseCanary: the candidate's verdicts are served live to the
	// station cohort; everyone else stays on the incumbent.
	PhaseCanary
)

// String returns the phase's wire-stable name.
func (p RolloutPhase) String() string {
	switch p {
	case PhaseShadow:
		return "shadow"
	case PhaseCanary:
		return "canary"
	default:
		return "none"
	}
}

// Rollout outcomes (RolloutStatus.LastOutcome, RolloutEvent.Outcome).
const (
	OutcomePromoted   = "promoted"
	OutcomeRolledBack = "rolled_back"
)

// cohortModulus is the resolution of station-cohort selection: cohort
// membership is hash%cohortModulus < fraction·cohortModulus (basis
// points).
const cohortModulus = 10000

// RolloutConfig parameterizes staged candidate rollout.
type RolloutConfig struct {
	// Enabled switches the subsystem on; when false, Stage and friends
	// fail with ErrRollout and the scoring hot path is untouched.
	Enabled bool
	// SampleEvery shadow-scores every n-th non-cohort full window on the
	// candidate (1 = every window). 0 = 4.
	SampleEvery int
	// CanaryFraction is the fraction of stations (by FNV hash) served by
	// the candidate during the canary phase. Must be in (0, 1); 0 = 0.25.
	CanaryFraction float64
	// ShadowSamples is the number of shadow observations a candidate
	// must bank (while staying within budget) before entering the canary
	// phase. 0 = 512.
	ShadowSamples int
	// CanarySamples is the number of additional observations banked in
	// the canary phase before auto-promotion. 0 = 1024.
	CanarySamples int
	// EvalEvery re-evaluates divergence every n-th recorded observation.
	// 0 = 128.
	EvalEvery int
	// Divergence holds the rollback budgets.
	Divergence DivergenceConfig
}

func (c RolloutConfig) withDefaults() RolloutConfig {
	if c.SampleEvery == 0 {
		c.SampleEvery = 4
	}
	if c.CanaryFraction == 0 {
		c.CanaryFraction = 0.25
	}
	if c.ShadowSamples == 0 {
		c.ShadowSamples = 512
	}
	if c.CanarySamples == 0 {
		c.CanarySamples = 1024
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 128
	}
	c.Divergence = c.Divergence.withDefaults()
	return c
}

func (c RolloutConfig) validate() error {
	if c.SampleEvery < 0 || c.ShadowSamples < 0 || c.CanarySamples < 0 || c.EvalEvery < 0 {
		return fmt.Errorf("%w: negative rollout parameter", ErrBadConfig)
	}
	if c.CanaryFraction < 0 || c.CanaryFraction >= 1 {
		return fmt.Errorf("%w: canary fraction %v not in (0,1)", ErrBadConfig, c.CanaryFraction)
	}
	return c.Divergence.validate()
}

// candidateState is the immutable candidate generation shards observe
// (the candidate-side mirror of modelState). Phase transitions publish a
// fresh value; det/threshold/gen never change within a generation.
type candidateState struct {
	det         *autoencoder.Detector
	threshold   float64
	gen         uint64
	phase       RolloutPhase
	cohortLimit uint32 // basis points of cohortModulus; 0 while shadowing
}

// RolloutEvent is one resolved candidate in the quarantine/promotion log.
type RolloutEvent struct {
	Gen     uint64          `json:"gen"`
	Outcome string          `json:"outcome"`
	Reason  string          `json:"reason"`
	Epoch   int             `json:"epoch"` // serving epoch after resolution
	Stats   DivergenceStats `json:"stats"`
}

// RolloutStatus is a point-in-time snapshot of the rollout state machine.
type RolloutStatus struct {
	Enabled        bool            `json:"enabled"`
	Phase          string          `json:"phase"`
	Gen            uint64          `json:"gen"`
	ServingEpoch   int             `json:"servingEpoch"`
	Samples        uint64          `json:"samples"`
	Promotions     uint64          `json:"promotions"`
	Rollbacks      uint64          `json:"rollbacks"`
	CohortFraction float64         `json:"cohortFraction"`
	Divergence     DivergenceStats `json:"divergence"`
	LastGen        uint64          `json:"lastGen"`
	LastOutcome    string          `json:"lastOutcome"`
	LastReason     string          `json:"lastReason"`
	History        []RolloutEvent  `json:"history,omitempty"`
}

// rollout is the controller: it owns staging, periodic divergence
// evaluation and the phase transitions. mu orders every transition;
// shards only touch the atomic sample counter and their own divWindows.
type rollout struct {
	svc      *Service
	cfg      RolloutConfig
	cohortBP uint32

	samples    atomic.Uint64 // divergence observations for the current candidate
	promotions atomic.Uint64
	rollbacks  atomic.Uint64
	evaluating atomic.Bool // collapses concurrent shard-triggered evaluations

	mu              sync.Mutex
	nextGen         uint64
	samplesAtCanary uint64
	lastGen         uint64
	lastOutcome     string
	lastReason      string
	lastStats       DivergenceStats
	history         []RolloutEvent
	scratchInc      []float64
	scratchCand     []float64
}

func newRollout(svc *Service, cfg RolloutConfig) *rollout {
	return &rollout{
		svc:      svc,
		cfg:      cfg,
		cohortBP: uint32(math.Round(cfg.CanaryFraction * cohortModulus)),
	}
}

// InCanaryCohort reports whether a station lands in the canary cohort at
// the given fraction — the same FNV-hash selection the shards apply, so
// producers and evaluations can predict candidate exposure.
func InCanaryCohort(station string, fraction float64) bool {
	h := fnv.New32a()
	h.Write([]byte(station))
	return h.Sum32()%cohortModulus < uint32(math.Round(fraction*cohortModulus))
}

// Stage parks det as the candidate generation in the shadow phase
// (replacing any in-flight candidate). threshold ≤ 0 inherits the
// serving threshold. Returns the staging generation.
func (s *Service) Stage(det *autoencoder.Detector, threshold float64) (uint64, error) {
	if s.roll == nil {
		return 0, fmt.Errorf("%w: rollout disabled", ErrRollout)
	}
	return s.roll.stage(det, threshold)
}

// StageWeights is Stage from a flat weight vector (the coordinator's
// -serve-canary push): a fresh detector with the serving configuration is
// built around a private copy of weights. Non-finite weights are rejected
// with ErrBadWeights.
func (s *Service) StageWeights(weights []float64, threshold float64) (uint64, error) {
	if s.roll == nil {
		return 0, fmt.Errorf("%w: rollout disabled", ErrRollout)
	}
	if i := mat.FirstNonFinite(weights); i >= 0 {
		return 0, fmt.Errorf("%w: non-finite weight at index %d", ErrBadWeights, i)
	}
	det, err := autoencoder.FromWeights(s.state.Load().det.Config(), weights)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrRollout, err)
	}
	return s.roll.stage(det, threshold)
}

// Promote is the operator override: immediately install the staged
// candidate as the serving model, skipping the remaining budget. Returns
// the new serving epoch.
func (s *Service) Promote() (int, error) {
	if s.roll == nil {
		return 0, fmt.Errorf("%w: rollout disabled", ErrRollout)
	}
	return s.roll.promote()
}

// Rollback is the operator override: immediately quarantine the staged
// candidate with reason ("" = "operator rollback"). The incumbent keeps
// serving.
func (s *Service) Rollback(reason string) error {
	if s.roll == nil {
		return fmt.Errorf("%w: rollout disabled", ErrRollout)
	}
	return s.roll.rollback(reason)
}

// Rollout returns a snapshot of the rollout state machine (zero-valued
// with Enabled=false when the subsystem is off).
func (s *Service) Rollout() RolloutStatus {
	if s.roll == nil {
		return RolloutStatus{Phase: PhaseNone.String()}
	}
	return s.roll.status()
}

func (r *rollout) stage(det *autoencoder.Detector, threshold float64) (uint64, error) {
	if det == nil || det.Model() == nil {
		return 0, fmt.Errorf("%w: nil or untrained candidate", ErrRollout)
	}
	if i := mat.FirstNonFinite(det.Model().WeightsVector()); i >= 0 {
		return 0, fmt.Errorf("%w: non-finite weight at index %d", ErrBadWeights, i)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.svc.state.Load()
	if det.Config().SeqLen != cur.det.Config().SeqLen {
		return 0, fmt.Errorf("%w: window length %d, serving %d",
			ErrRollout, det.Config().SeqLen, cur.det.Config().SeqLen)
	}
	if !(threshold > 0) {
		threshold = cur.threshold
	}
	r.nextGen++
	gen := r.nextGen
	for _, sh := range r.svc.shards {
		sh.div.arm(gen, r.cfg.Divergence.Window)
	}
	r.samples.Store(0)
	r.samplesAtCanary = 0
	r.svc.cand.Store(&candidateState{det: det, threshold: threshold, gen: gen, phase: PhaseShadow})
	return gen, nil
}

// noteSamples credits k freshly recorded divergence observations and
// re-evaluates the candidate when the count crosses an EvalEvery
// boundary. Called from shard goroutines on the scoring path: the fast
// case is one atomic add and a division.
func (r *rollout) noteSamples(k int) {
	if k == 0 {
		return
	}
	every := uint64(r.cfg.EvalEvery)
	total := r.samples.Add(uint64(k))
	if total/every == (total-uint64(k))/every {
		return
	}
	// One evaluation at a time; a shard that loses the race just keeps
	// scoring (the winner sees its samples anyway).
	if !r.evaluating.CompareAndSwap(false, true) {
		return
	}
	defer r.evaluating.Store(false)
	r.evaluate()
}

// evaluate merges the shard windows and advances the state machine.
func (r *rollout) evaluate() {
	r.mu.Lock()
	defer r.mu.Unlock()
	cand := r.svc.cand.Load()
	if cand == nil {
		return
	}
	var st DivergenceStats
	st, r.scratchInc, r.scratchCand = mergeDivergence(r.svc.shards, cand.gen, r.scratchInc, r.scratchCand)
	r.lastStats = st
	if diverged, reason := r.cfg.Divergence.check(st); diverged {
		r.rollbackLocked(cand, reason, st)
		return
	}
	if st.Samples < r.cfg.Divergence.MinSamples {
		return
	}
	total := r.samples.Load()
	switch cand.phase {
	case PhaseShadow:
		if total >= uint64(r.cfg.ShadowSamples) {
			// Same generation, new phase: shards pick the cohort limit up
			// at their next wave.
			r.svc.cand.Store(&candidateState{
				det: cand.det, threshold: cand.threshold, gen: cand.gen,
				phase: PhaseCanary, cohortLimit: r.cohortBP,
			})
			r.samplesAtCanary = total
		}
	case PhaseCanary:
		if total >= r.samplesAtCanary+uint64(r.cfg.CanarySamples) {
			r.promoteLocked(cand, "within budget", st)
		}
	}
}

func (r *rollout) promote() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cand := r.svc.cand.Load()
	if cand == nil {
		return 0, fmt.Errorf("%w: no candidate staged", ErrRollout)
	}
	var st DivergenceStats
	st, r.scratchInc, r.scratchCand = mergeDivergence(r.svc.shards, cand.gen, r.scratchInc, r.scratchCand)
	return r.promoteLocked(cand, "operator promote", st)
}

func (r *rollout) rollback(reason string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cand := r.svc.cand.Load()
	if cand == nil {
		return fmt.Errorf("%w: no candidate staged", ErrRollout)
	}
	if reason == "" {
		reason = "operator rollback"
	}
	var st DivergenceStats
	st, r.scratchInc, r.scratchCand = mergeDivergence(r.svc.shards, cand.gen, r.scratchInc, r.scratchCand)
	r.rollbackLocked(cand, reason, st)
	return nil
}

// promoteLocked installs the candidate as the serving model. Caller holds
// r.mu (the rollout.mu → reloadMu lock order is the only one used).
func (r *rollout) promoteLocked(cand *candidateState, reason string, st DivergenceStats) (int, error) {
	epoch, err := r.svc.Reload(cand.det, cand.threshold)
	if err != nil {
		// Unreachable with a stage-validated candidate, but never wedge
		// the state machine: quarantine instead.
		r.rollbackLocked(cand, "promote failed: "+err.Error(), st)
		return 0, err
	}
	r.svc.cand.Store(nil)
	r.promotions.Add(1)
	r.resolve(RolloutEvent{Gen: cand.gen, Outcome: OutcomePromoted, Reason: reason, Epoch: epoch, Stats: st})
	return epoch, nil
}

// rollbackLocked quarantines the candidate; the incumbent keeps serving.
func (r *rollout) rollbackLocked(cand *candidateState, reason string, st DivergenceStats) {
	r.svc.cand.Store(nil)
	r.rollbacks.Add(1)
	r.resolve(RolloutEvent{Gen: cand.gen, Outcome: OutcomeRolledBack, Reason: reason, Epoch: r.svc.Epoch(), Stats: st})
}

// resolve records a candidate's final outcome (history keeps the last 16).
func (r *rollout) resolve(ev RolloutEvent) {
	r.lastGen, r.lastOutcome, r.lastReason, r.lastStats = ev.Gen, ev.Outcome, ev.Reason, ev.Stats
	if len(r.history) == cap(r.history) && len(r.history) >= 16 {
		copy(r.history, r.history[1:])
		r.history = r.history[:len(r.history)-1]
	}
	r.history = append(r.history, ev)
}

func (r *rollout) status() RolloutStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RolloutStatus{
		Enabled:        true,
		Phase:          PhaseNone.String(),
		ServingEpoch:   r.svc.Epoch(),
		Samples:        r.samples.Load(),
		Promotions:     r.promotions.Load(),
		Rollbacks:      r.rollbacks.Load(),
		CohortFraction: r.cfg.CanaryFraction,
		LastGen:        r.lastGen,
		LastOutcome:    r.lastOutcome,
		LastReason:     r.lastReason,
		Divergence:     r.lastStats,
		History:        append([]RolloutEvent(nil), r.history...),
	}
	if cand := r.svc.cand.Load(); cand != nil {
		st.Phase = cand.phase.String()
		st.Gen = cand.gen
		st.Divergence, r.scratchInc, r.scratchCand =
			mergeDivergence(r.svc.shards, cand.gen, r.scratchInc, r.scratchCand)
	}
	return st
}
