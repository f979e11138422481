package serve

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testRollout is a rollout configuration small enough to resolve within
// a few hundred windows of test traffic but with budgets generous enough
// that a lightly perturbed candidate promotes.
func testRollout() RolloutConfig {
	return RolloutConfig{
		Enabled:        true,
		SampleEvery:    1,
		CanaryFraction: 0.3,
		ShadowSamples:  120,
		CanarySamples:  120,
		EvalEvery:      40,
		Divergence: DivergenceConfig{
			Window:           256,
			MinSamples:       60,
			MaxFlipRate:      0.25,
			MaxAnomalyDelta:  0.25,
			MaxMeanShift:     5,
			MaxQuantileShift: 50,
		},
	}
}

// poisonedWeights is a round result gone wrong: the detector's weights
// scaled to garbage, as a poisoned federated aggregate would be.
func poisonedWeights(t testing.TB) []float64 {
	t.Helper()
	det, _ := testDetector(t)
	w := det.Model().WeightsVector()
	for i := range w {
		w[i] *= -6
	}
	return w
}

// testStations is a fixed station population straddling the canary
// cohort boundary at fraction 0.3.
func testStations(t testing.TB, fraction float64) (all, cohort []string) {
	t.Helper()
	names := []string{
		"zone-101", "zone-102", "zone-103", "zone-104", "zone-105", "zone-106",
		"zone-201", "zone-202", "zone-203", "zone-204", "zone-205", "zone-206",
	}
	for _, n := range names {
		if InCanaryCohort(n, fraction) {
			cohort = append(cohort, n)
		}
	}
	if len(cohort) == 0 || len(cohort) == len(names) {
		t.Fatalf("degenerate cohort %d/%d at fraction %v; pick different names", len(cohort), len(names), fraction)
	}
	return names, cohort
}

// pump round-robins traffic across stations until the rollout for gen
// resolves (or the point budget runs out), returning the number of
// canary-served verdicts per station.
func pump(t *testing.T, s *Service, names []string, gen uint64, budget int) map[string]int {
	t.Helper()
	canary := make(map[string]int)
	feed := testSeries(budget, 97)
	ch := make(chan Verdict, 1)
	reply := func(v Verdict) { ch <- v }
	for i := 0; i < budget; i++ {
		for _, name := range names {
			if err := s.Submit(name, feed[i], reply); err != nil {
				t.Fatal(err)
			}
			v := <-ch
			if v.Canary {
				canary[v.Station]++
			}
		}
		st := s.Rollout()
		if st.LastGen == gen && st.LastOutcome != "" {
			return canary
		}
	}
	t.Fatalf("rollout gen %d unresolved after %d points/station: %+v", gen, budget, s.Rollout())
	return nil
}

// TestRolloutAutoPromote: a lightly perturbed candidate walks
// shadow → canary → promoted; canary verdicts reach only the cohort, and
// promotion installs the candidate (epoch bump) without interrupting
// scoring.
func TestRolloutAutoPromote(t *testing.T) {
	cfg := testRollout()
	s := newTestService(t, Config{Shards: 2, Rollout: cfg})
	names, cohort := testStations(t, cfg.CanaryFraction)

	gen, err := s.StageWeights(perturbedWeights(t, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Rollout(); st.Phase != "shadow" || st.Gen != gen {
		t.Fatalf("post-stage status %+v", st)
	}
	canary := pump(t, s, names, gen, 400)

	st := s.Rollout()
	if st.LastOutcome != OutcomePromoted {
		t.Fatalf("outcome %q (%s), want promoted", st.LastOutcome, st.LastReason)
	}
	if st.Phase != "none" || s.Epoch() != 2 || st.Promotions != 1 || st.Rollbacks != 0 {
		t.Fatalf("post-promotion status %+v, epoch %d", st, s.Epoch())
	}
	inCohort := make(map[string]bool, len(cohort))
	for _, n := range cohort {
		inCohort[n] = true
	}
	served := 0
	for name, k := range canary {
		if !inCohort[name] {
			t.Fatalf("station %s outside the cohort got %d canary verdicts", name, k)
		}
		served += k
	}
	if served == 0 {
		t.Fatal("no canary-served verdicts before promotion")
	}
	if stats := s.Stats(); stats.CanaryServed != uint64(served) || stats.ShadowWindows == 0 {
		t.Fatalf("stats %+v, counted %d canary verdicts", stats, served)
	}
}

// TestRolloutAutoRollback: a poisoned candidate is quarantined before it
// ever serves a verdict outside the cohort, and the incumbent keeps
// serving on its old epoch.
func TestRolloutAutoRollback(t *testing.T) {
	cfg := testRollout()
	s := newTestService(t, Config{Shards: 2, Rollout: cfg})
	names, _ := testStations(t, cfg.CanaryFraction)

	gen, err := s.StageWeights(poisonedWeights(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	canary := pump(t, s, names, gen, 400)

	st := s.Rollout()
	if st.LastOutcome != OutcomeRolledBack {
		t.Fatalf("outcome %q, want rolled_back", st.LastOutcome)
	}
	if st.LastReason == "" || st.Rollbacks != 1 || st.Promotions != 0 {
		t.Fatalf("post-rollback status %+v", st)
	}
	if s.Epoch() != 1 {
		t.Fatalf("rollback bumped epoch to %d", s.Epoch())
	}
	// Divergence resolves during shadow, so the poisoned candidate never
	// served a single live verdict.
	if len(canary) != 0 {
		t.Fatalf("poisoned candidate served canary verdicts: %v", canary)
	}
	if len(st.History) != 1 || st.History[0].Outcome != OutcomeRolledBack || st.History[0].Gen != gen {
		t.Fatalf("history %+v", st.History)
	}
}

// TestRolloutOperatorOverrides: Promote and Rollback bypass the budget;
// both fail without a staged candidate.
func TestRolloutOperatorOverrides(t *testing.T) {
	s := newTestService(t, Config{Shards: 1, Rollout: testRollout()})
	if _, err := s.Promote(); !errors.Is(err, ErrRollout) {
		t.Fatalf("promote without candidate: %v", err)
	}
	if err := s.Rollback(""); !errors.Is(err, ErrRollout) {
		t.Fatalf("rollback without candidate: %v", err)
	}

	if _, err := s.StageWeights(perturbedWeights(t, 5), 0); err != nil {
		t.Fatal(err)
	}
	epoch, err := s.Promote()
	if err != nil || epoch != 2 || s.Epoch() != 2 {
		t.Fatalf("operator promote: epoch %d, err %v", epoch, err)
	}

	if _, err := s.StageWeights(perturbedWeights(t, 6), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Rollback("bad vibes"); err != nil {
		t.Fatal(err)
	}
	st := s.Rollout()
	if st.LastOutcome != OutcomeRolledBack || st.LastReason != "bad vibes" || s.Epoch() != 2 {
		t.Fatalf("operator rollback status %+v, epoch %d", st, s.Epoch())
	}
	if st.Promotions != 1 || st.Rollbacks != 1 {
		t.Fatalf("counters %+v", st)
	}
}

// TestStageValidation: staging is rejected when the subsystem is off,
// for bad candidates, and for non-finite weights (ErrBadWeights).
func TestStageValidation(t *testing.T) {
	off := newTestService(t, Config{Shards: 1})
	if _, err := off.StageWeights(perturbedWeights(t, 7), 0); !errors.Is(err, ErrRollout) {
		t.Fatalf("rollout disabled: %v", err)
	}
	if _, err := off.Promote(); !errors.Is(err, ErrRollout) {
		t.Fatalf("promote disabled: %v", err)
	}
	if st := off.Rollout(); st.Enabled || st.Phase != "none" {
		t.Fatalf("disabled status %+v", st)
	}

	s := newTestService(t, Config{Shards: 1, Rollout: testRollout()})
	if _, err := s.StageWeights([]float64{1, 2, 3}, 0); !errors.Is(err, ErrRollout) {
		t.Fatalf("short vector: %v", err)
	}
	if _, err := s.Stage(nil, 0); !errors.Is(err, ErrRollout) {
		t.Fatalf("nil candidate: %v", err)
	}
	w := perturbedWeights(t, 8)
	w[3] = math.NaN()
	if _, err := s.StageWeights(w, 0); !errors.Is(err, ErrBadWeights) {
		t.Fatalf("NaN weights: %v", err)
	}
	if st := s.Rollout(); st.Phase != "none" {
		t.Fatalf("rejected staging left a candidate: %+v", st)
	}
}

// TestReloadRejectsNonFinite: satellite bugfix — NaN/Inf weight payloads
// are bounced with ErrBadWeights at every reload entry point instead of
// installing a model that scores NaN (which would silently disable
// flagging).
func TestReloadRejectsNonFinite(t *testing.T) {
	s := newTestService(t, Config{Shards: 1})
	w := perturbedWeights(t, 11)
	w[0] = math.NaN()
	if _, err := s.ReloadWeights(w, 0); !errors.Is(err, ErrBadWeights) {
		t.Fatalf("NaN weight: %v", err)
	}
	w[0] = math.Inf(-1)
	if _, err := s.ReloadWeights(w, 0); !errors.Is(err, ErrBadWeights) {
		t.Fatalf("Inf weight: %v", err)
	}
	if s.Epoch() != 1 {
		t.Fatalf("rejected weights bumped epoch to %d", s.Epoch())
	}
}

// TestIdleEviction: stations idle past IdleTTL are swept from the
// registry and counted; a returning station starts a fresh stream.
func TestIdleEviction(t *testing.T) {
	s := newTestService(t, Config{Shards: 1, IdleTTL: 20 * time.Millisecond})
	got := collect(t, s, "transient", testSeries(10, 3))
	if got[9].Index != 9 {
		t.Fatalf("pre-eviction index %d", got[9].Index)
	}
	if st := s.Stats(); st.Stations != 1 {
		t.Fatalf("stations %d", st.Stations)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if st.Stations == 0 && st.Evicted == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("station not evicted: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The returning station is a fresh stream: indices restart at 0.
	got = collect(t, s, "transient", testSeries(3, 4))
	if got[0].Index != 0 {
		t.Fatalf("post-eviction index %d", got[0].Index)
	}
	if st := s.Stats(); st.Stations != 1 {
		t.Fatalf("post-return stations %d", st.Stations)
	}
}

// TestShadowScoringZeroAlloc: the acceptance bar — steady-state scoring
// with shadow sampling enabled (candidate staged, every window
// double-scored) allocates nothing per observation.
func TestShadowScoringZeroAlloc(t *testing.T) {
	cfg := testRollout()
	// Park the state machine: no transition or evaluation fires during
	// the measured runs.
	cfg.ShadowSamples = 1 << 40
	cfg.EvalEvery = 1 << 40
	s := newTestService(t, Config{Shards: 1, Rollout: cfg})
	if _, err := s.StageWeights(perturbedWeights(t, 12), 0); err != nil {
		t.Fatal(err)
	}
	feed := testSeries(64, 23)
	ch := make(chan Verdict, 1)
	reply := func(v Verdict) { ch <- v }
	for _, v := range feed { // warm-up: fill the ring, grow all scratch
		if err := s.Submit("hot", v, reply); err != nil {
			t.Fatal(err)
		}
		<-ch
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Submit("hot", feed[i%len(feed)], reply); err != nil {
			t.Fatal(err)
		}
		<-ch
		i++
	})
	if allocs != 0 {
		t.Fatalf("%v allocs/op with shadow sampling enabled", allocs)
	}
	if st := s.Stats(); st.ShadowWindows == 0 {
		t.Fatalf("shadow path never ran: %+v", st)
	}
}

// TestCanaryUnderLoad is the rollout serving guarantee under -race:
// producers hammer stations through a full clean-promote cycle and a full
// poisoned-rollback cycle, and every accepted observation gets exactly
// one verdict, per-station indices stay contiguous, epochs never go
// backwards, and canary verdicts stay inside the cohort.
func TestCanaryUnderLoad(t *testing.T) {
	const (
		producers  = 4
		stations   = 6 // per producer
		maxIter    = 20000
		pointBurst = 64
	)
	cfg := testRollout()
	s := newTestService(t, Config{Shards: 3, QueueDepth: 64, Mitigate: true, Rollout: cfg})
	feed := attackSeries(pointBurst, 13, 17)

	var stop atomic.Bool
	var delivered, accepted atomic.Uint64
	type stationRec struct {
		name   string
		mu     sync.Mutex
		got    []Verdict
		cohort bool
	}
	var recs []*stationRec

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		prs := make([]*stationRec, stations)
		for k := range prs {
			name := "p" + string(rune('0'+p)) + "-s" + string(rune('a'+k))
			prs[k] = &stationRec{name: name, cohort: InCanaryCohort(name, cfg.CanaryFraction)}
		}
		recs = append(recs, prs...)
		wg.Add(1)
		go func(prs []*stationRec) {
			defer wg.Done()
			for iter := 0; !stop.Load() && iter < maxIter; iter++ {
				for _, rec := range prs {
					rec := rec
					for !stop.Load() {
						err := s.Submit(rec.name, feed[iter%pointBurst], func(v Verdict) {
							rec.mu.Lock()
							rec.got = append(rec.got, v)
							rec.mu.Unlock()
							delivered.Add(1)
						})
						if err == nil {
							accepted.Add(1)
							break
						}
						if !errors.Is(err, ErrBacklog) {
							t.Error(err)
							return
						}
					}
				}
			}
		}(prs)
	}

	// The stager walks one clean candidate to promotion, then one
	// poisoned candidate to rollback, while traffic flows.
	awaitOutcome := func(gen uint64, want string) bool {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			st := s.Rollout()
			if st.LastGen == gen && st.LastOutcome != "" {
				if st.LastOutcome != want {
					t.Errorf("gen %d resolved %q (%s), want %q", gen, st.LastOutcome, st.LastReason, want)
					return false
				}
				return true
			}
			time.Sleep(time.Millisecond)
		}
		t.Errorf("gen %d unresolved: %+v", gen, s.Rollout())
		return false
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		gen, err := s.StageWeights(perturbedWeights(t, 101), 0)
		if err != nil {
			t.Error(err)
			return
		}
		if !awaitOutcome(gen, OutcomePromoted) {
			return
		}
		if gen, err = s.StageWeights(poisonedWeights(t), 0); err != nil {
			t.Error(err)
			return
		}
		awaitOutcome(gen, OutcomeRolledBack)
	}()

	wg.Wait()
	s.Close() // drains every accepted observation
	if delivered.Load() != accepted.Load() {
		t.Fatalf("delivered %d verdicts for %d accepted observations", delivered.Load(), accepted.Load())
	}
	st := s.Rollout()
	if st.Promotions != 1 || st.Rollbacks != 1 {
		t.Fatalf("promotions %d, rollbacks %d", st.Promotions, st.Rollbacks)
	}
	if s.Epoch() != 2 {
		t.Fatalf("final epoch %d, want 2 (one promotion)", s.Epoch())
	}
	for _, rec := range recs {
		rec.mu.Lock()
		lastEpoch := 0
		for i, v := range rec.got {
			if v.Index != i {
				t.Fatalf("station %s: verdict %d has index %d (dropped in-flight window)", rec.name, i, v.Index)
			}
			if v.Epoch < lastEpoch {
				t.Fatalf("station %s: epoch went backwards %d → %d", rec.name, lastEpoch, v.Epoch)
			}
			lastEpoch = v.Epoch
			if v.Canary && !rec.cohort {
				t.Fatalf("station %s outside the cohort got a canary verdict", rec.name)
			}
		}
		rec.mu.Unlock()
	}
	if stats := s.Stats(); stats.Points != delivered.Load() {
		t.Fatalf("stats points %d, delivered %d", stats.Points, delivered.Load())
	}
}
