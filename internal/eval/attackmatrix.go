package eval

import (
	"fmt"
	"math"

	"github.com/evfed/evfed/internal/anomaly"
	"github.com/evfed/evfed/internal/attack"
	"github.com/evfed/evfed/internal/autoencoder"
	"github.com/evfed/evfed/internal/dataset"
	"github.com/evfed/evfed/internal/fed"
	"github.com/evfed/evfed/internal/metrics"
	"github.com/evfed/evfed/internal/nn"
	"github.com/evfed/evfed/internal/rng"
	"github.com/evfed/evfed/internal/scale"
	"github.com/evfed/evfed/internal/series"
)

// Adversarial evaluation matrix: the paper's actual threat model, gated.
//
// The matrix has two planes. The data plane sweeps every telemetry attack
// family (DDoS volume spikes, three FDI shapes, three temporal
// disruptions) at two intensities through the paper's autoencoder
// detection + mitigation pipeline, scoring point flags against the
// injectors' ground-truth masks. The model plane sweeps Byzantine client
// attacks (sign-flip, scaled-poison, colluding subset) with f = 1..4
// compromised stations out of 8 against each aggregation rule, measuring
// the global forecaster's R² on honest held-out data versus the same
// rule's clean baseline.
//
// Every cell carries declared robustness bounds and a pass/fail verdict:
//
//   - detection cells pass when precision/recall/FPR clear the family's
//     declared floor (replay is scored on episode recall — a magnitude
//     detector only sees its splice boundaries, see DESIGN.md §14);
//   - containment cells with f at or below the aggregator's breakdown
//     point (mean: 0, median: ⌊(n−1)/2⌋, trimmed-t: t) must hold the R²
//     delta under the contain bound, and cells past the breakdown point
//     must demonstrably break — the matrix proves both directions, so a
//     silently-too-weak attack fails the gate just like a broken defense.
//
// The matrix is deterministic per seed and core count, and the detection
// plane does not move with the core count either (amDetector pins its
// workers). The containment metrics do — client trainers shard gradients
// by core — but every verdict holds at 1, 2 and 4 cores.
// TestRunAttackMatrix requires every cell to pass and pins the cell set.

// AttackMatrixParams tunes the adversarial matrix sweep.
type AttackMatrixParams struct {
	// Seed drives data generation, attack placement and every federation.
	Seed uint64
	// Hours is the data-plane series length (default 1200).
	Hours int
	// Stations is the model-plane federation size (default 8).
	Stations int
	// Rounds is the model-plane round count (default 3).
	Rounds int
	// TrimPerSide parameterizes the trimmed-mean arm (default 2).
	TrimPerSide int
}

func (p *AttackMatrixParams) fill() AttackMatrixParams {
	q := *p
	if q.Seed == 0 {
		q.Seed = 1
	}
	if q.Hours == 0 {
		q.Hours = 1200
	}
	if q.Stations == 0 {
		q.Stations = 8
	}
	if q.Rounds == 0 {
		q.Rounds = 3
	}
	if q.TrimPerSide == 0 {
		q.TrimPerSide = 2
	}
	return q
}

// AttackMatrixCell is one cell of the adversarial matrix.
type AttackMatrixCell struct {
	// Plane is "detection" (data plane) or "containment" (model plane).
	Plane string
	// Family is the attack family ("ddos", "fdi-bias", ..., "sign-flip").
	Family string
	// Intensity is "low"/"high" for detection cells, "f=N" for
	// containment cells.
	Intensity string
	// Aggregator is the aggregation rule under test ("-" on the data
	// plane, where no federation runs).
	Aggregator string
	// Topology is "flat" or "2-tier" for containment cells, "-" otherwise.
	Topology string
	// Expect declares the cell's required outcome: "detect", "contain" or
	// "break".
	Expect string

	// Detection-plane results: point metrics against the ground-truth
	// mask, the false-positive rate, episode-level recall (fraction of
	// injected episodes with at least one flagged hour) and mitigation
	// RMSE against the clean series.
	Detection     metrics.Detection `json:"detection,omitempty"`
	FPR           float64           `json:"fpr,omitempty"`
	EpisodeRecall float64           `json:"episode_recall,omitempty"`
	AttackedRMSE  float64           `json:"attacked_rmse,omitempty"`
	FilteredRMSE  float64           `json:"filtered_rmse,omitempty"`
	// Declared detection bounds (the verdict's inputs).
	MinPrecision, MinRecall, MinEpisodeRecall, MaxFPR float64

	// Containment-plane results: honest-station test R² of the global
	// model under attack vs the same aggregator's clean baseline.
	Byzantine int     `json:"byzantine,omitempty"`
	CleanR2   float64 `json:"clean_r2,omitempty"`
	R2        float64 `json:"r2,omitempty"`
	// R2Delta is CleanR2 − R2 (+Inf when the attacked model is non-finite).
	R2Delta float64 `json:"r2_delta,omitempty"`
	// Bound is the declared containment bound: contain cells need
	// R2Delta ≤ Bound, break cells need R2Delta ≥ Bound.
	Bound float64 `json:"bound,omitempty"`

	// Pass is the cell's verdict against its declared bounds.
	Pass bool
}

// Key identifies a cell across runs (TestRunAttackMatrix pins the key set).
func (c AttackMatrixCell) Key() string {
	return fmt.Sprintf("%s/%s/%s/%s/%s", c.Plane, c.Family, c.Intensity, c.Aggregator, c.Topology)
}

// ---------------------------------------------------------------------------
// Data plane: telemetry attacks vs the detection + mitigation pipeline.

// amInjector is one attack family's injection closure.
type amInjector struct {
	name   string
	inject func(values []float64, eps []attack.Episode, r *rng.Source) (*attack.Result, error)
}

func amFamilies() []amInjector {
	fdi := func(cfg attack.FDIConfig) func([]float64, []attack.Episode, *rng.Source) (*attack.Result, error) {
		return func(v []float64, eps []attack.Episode, r *rng.Source) (*attack.Result, error) {
			return attack.InjectFDI(v, eps, cfg, r)
		}
	}
	temporal := func(kind attack.TemporalKind) func([]float64, []attack.Episode, *rng.Source) (*attack.Result, error) {
		return func(v []float64, eps []attack.Episode, r *rng.Source) (*attack.Result, error) {
			return attack.InjectTemporal(v, eps, attack.TemporalConfig{Kind: kind}, r)
		}
	}
	return []amInjector{
		{"ddos", func(v []float64, eps []attack.Episode, r *rng.Source) (*attack.Result, error) {
			return attack.InjectDDoS(v, eps, attack.DefaultTraffic(), r)
		}},
		{attack.FDIBias.String(), fdi(attack.FDIConfig{Kind: attack.FDIBias, BiasFrac: 2})},
		{attack.FDIRamp.String(), fdi(attack.FDIConfig{Kind: attack.FDIRamp, BiasFrac: 2})},
		{attack.FDIPulse.String(), fdi(attack.FDIConfig{Kind: attack.FDIPulse, BiasFrac: 2.5})},
		{attack.TemporalReorder.String(), temporal(attack.TemporalReorder)},
		{attack.TemporalReplay.String(), temporal(attack.TemporalReplay)},
		{attack.TemporalGap.String(), temporal(attack.TemporalGap)},
	}
}

// amSchedule returns the episode schedule for an intensity level. Episode
// lengths deliberately avoid multiples of 24 so replayed segments land
// phase-shifted against the daily cycle (a 24h-aligned replay of a
// periodic series is near-invisible by construction, which would test the
// generator, not the detector).
func amSchedule(intensity string) attack.ScheduleConfig {
	switch intensity {
	case "high":
		return attack.ScheduleConfig{
			Episodes: 6, MinLen: 30, MaxLen: 42,
			MinSeverity: 0.3, MaxSeverity: 0.6, MinGap: 24,
		}
	default: // low
		return attack.ScheduleConfig{
			Episodes: 6, MinLen: 10, MaxLen: 16,
			MinSeverity: 0.08, MaxSeverity: 0.2, MinGap: 24,
		}
	}
}

// amDetectionBound holds one family×intensity cell's declared floor. The
// values are calibrated from a seed-42 run with margin; they encode
// qualitative robustness claims (see DESIGN.md §14), not that run's exact
// numbers.
type amDetectionBound struct {
	minPrecision, minRecall, minEpisodeRecall, maxFPR float64
}

func amDetectionBounds(family, intensity string) amDetectionBound {
	high := intensity == "high"
	switch family {
	case "ddos":
		if high {
			return amDetectionBound{0.80, 0.85, 0.99, 0.05}
		}
		return amDetectionBound{0.60, 0.50, 0.80, 0.05}
	case "fdi-bias":
		if high {
			return amDetectionBound{0.80, 0.60, 0.99, 0.05}
		}
		return amDetectionBound{0.60, 0.15, 0.45, 0.05}
	case "fdi-ramp":
		// The ramp hides its onset: recall floors sit below the bias
		// shape's because early-episode hours carry almost no bias.
		if high {
			return amDetectionBound{0.75, 0.40, 0.99, 0.05}
		}
		return amDetectionBound{0.45, 0.05, 0.30, 0.05}
	case "fdi-pulse":
		// Pulse masks are sparse (on-pulses only), so hourly recall is
		// measured against far fewer attacked hours; the off-pulse hours
		// between spikes also drag the point precision floor down.
		if high {
			return amDetectionBound{0.65, 0.75, 0.99, 0.05}
		}
		return amDetectionBound{0.35, 0.15, 0.45, 0.05}
	case "temporal-reorder":
		// Shuffling preserves magnitudes; the detector keys on the
		// off-manifold jaggedness, so hourly recall plateaus well below
		// the volumetric families while episode recall stays high.
		if high {
			return amDetectionBound{0.65, 0.25, 0.80, 0.05}
		}
		return amDetectionBound{0.45, 0.20, 0.60, 0.05}
	case "temporal-replay":
		// A magnitude detector only sees a replay's splice boundaries:
		// hourly recall is structurally near zero, so the claim is
		// episode-level (≥ one boundary flagged per episode) plus a
		// loose precision floor over the boundary flags.
		if high {
			return amDetectionBound{0.25, 0.01, 0.30, 0.05}
		}
		return amDetectionBound{0.40, 0.10, 0.50, 0.05}
	case "temporal-gap":
		// A zeroed feed is maximally off-manifold: the strictest floors.
		if high {
			return amDetectionBound{0.85, 0.90, 0.99, 0.05}
		}
		return amDetectionBound{0.75, 0.90, 0.99, 0.05}
	}
	return amDetectionBound{0.5, 0.1, 0.5, 0.05}
}

// amDetector trains the data-plane detector once on the clean training
// split (QuickParams-sized autoencoder) and returns the scaler and
// calibrated filter, mirroring Prepare's per-client pipeline.
// amDetectorSeqLen is the data-plane autoencoder window (and so the
// half-width of the boundary halo excluded from precision/FPR scoring).
const amDetectorSeqLen = 24

// amHaloFilter projects labels/flags onto the evaluable index set: every
// labeled hour, plus every clean hour at least seqLen away from any
// episode. Clean hours inside the halo are dropped — their scores are
// mixtures of attacked and clean windows, so neither verdict there says
// anything about the detector.
func amHaloFilter(labels, flags []bool, seqLen int) (truth, pred []bool) {
	halo := make([]bool, len(labels))
	for i, l := range labels {
		if !l {
			continue
		}
		lo := i - seqLen
		if lo < 0 {
			lo = 0
		}
		hi := i + seqLen
		if hi >= len(labels) {
			hi = len(labels) - 1
		}
		for j := lo; j <= hi; j++ {
			halo[j] = true
		}
	}
	truth = make([]bool, 0, len(labels))
	pred = make([]bool, 0, len(flags))
	for i, l := range labels {
		if l || !halo[i] {
			truth = append(truth, l)
			pred = append(pred, flags[i])
		}
	}
	return truth, pred
}

func amDetector(clean []float64, p AttackMatrixParams) (*scale.MinMaxScaler, *anomaly.Filter, error) {
	const seqLen = amDetectorSeqLen
	cleanTrain, _, err := series.SplitValues(clean, 0.8)
	if err != nil {
		return nil, nil, err
	}
	var sc scale.MinMaxScaler
	scaledTrain, err := sc.FitTransform(cleanTrain)
	if err != nil {
		return nil, nil, err
	}
	aeCfg := autoencoder.DefaultConfig()
	aeCfg.SeqLen = seqLen
	aeCfg.EncoderUnits = 40
	aeCfg.Bottleneck = 6
	aeCfg.Epochs = 40
	aeCfg.TrainStride = 1
	aeCfg.Seed = p.Seed
	// Pinned for the same reason as amInitSeed: the gradient-shard
	// summation order follows the worker count, and the FPR cells sit close
	// enough to their 5% ceiling that a host-core default would make the
	// verdicts measure the machine, not the defence.
	aeCfg.Workers = 1
	filter, _, err := TrainFilter(scaledTrain, aeCfg, anomaly.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	return &sc, filter, nil
}

func runDetectionCells(p AttackMatrixParams) ([]AttackMatrixCell, error) {
	gen, err := dataset.Generate(dataset.Config{Profile: dataset.Profile102(), Hours: p.Hours, Seed: p.Seed})
	if err != nil {
		return nil, fmt.Errorf("eval: attack matrix dataset: %w", err)
	}
	clean := gen.Series.Values
	sc, filter, err := amDetector(clean, p)
	if err != nil {
		return nil, fmt.Errorf("eval: attack matrix detector: %w", err)
	}

	var out []AttackMatrixCell
	for fi, fam := range amFamilies() {
		for ii, intensity := range []string{"low", "high"} {
			sched := amSchedule(intensity)
			// Per-cell RNG: stable under reordering of other cells.
			r := rng.New(p.Seed ^ (uint64(fi+1) * 0x5bd1e995) ^ (uint64(ii+1) * 0x27d4eb2f))
			// Placement starts past MaxLen so every replay has history.
			eps, err := attack.Schedule(sched, len(clean), sched.MaxLen+1, r)
			if err != nil {
				return nil, fmt.Errorf("eval: schedule %s/%s: %w", fam.name, intensity, err)
			}
			injected, err := fam.inject(clean, eps, r)
			if err != nil {
				return nil, fmt.Errorf("eval: inject %s/%s: %w", fam.name, intensity, err)
			}
			scaledAttacked, err := sc.Transform(injected.Values)
			if err != nil {
				return nil, err
			}
			res, err := filter.Apply(scaledAttacked)
			if err != nil {
				return nil, fmt.Errorf("eval: filter %s/%s: %w", fam.name, intensity, err)
			}
			filtered, err := sc.Inverse(res.Filtered)
			if err != nil {
				return nil, err
			}
			// Window-halo exclusion: the detector scores a point by the
			// windows that contain it, so the seqLen−1 hours flanking an
			// episode legitimately carry elevated scores. Flags there are
			// boundary ambiguity, not detector noise — they are excluded
			// from precision/FPR (labeled hours always count).
			truth, pred := amHaloFilter(injected.Labels, res.Flags, amDetectorSeqLen)
			conf, err := metrics.EvalDetection(truth, pred)
			if err != nil {
				return nil, err
			}
			attackedReg, err := metrics.EvalRegression(clean, injected.Values)
			if err != nil {
				return nil, err
			}
			filteredReg, err := metrics.EvalRegression(clean, filtered)
			if err != nil {
				return nil, err
			}
			hit := 0
			for _, e := range eps {
				for t := e.Start; t < e.End(); t++ {
					if res.Flags[t] {
						hit++
						break
					}
				}
			}
			b := amDetectionBounds(fam.name, intensity)
			cell := AttackMatrixCell{
				Plane:            "detection",
				Family:           fam.name,
				Intensity:        intensity,
				Aggregator:       "-",
				Topology:         "-",
				Expect:           "detect",
				Detection:        metrics.Summarize(conf),
				FPR:              conf.FPR(),
				EpisodeRecall:    float64(hit) / float64(len(eps)),
				AttackedRMSE:     attackedReg.RMSE,
				FilteredRMSE:     filteredReg.RMSE,
				MinPrecision:     b.minPrecision,
				MinRecall:        b.minRecall,
				MinEpisodeRecall: b.minEpisodeRecall,
				MaxFPR:           b.maxFPR,
			}
			cell.Pass = cell.Detection.Precision >= b.minPrecision &&
				cell.Detection.Recall >= b.minRecall &&
				cell.EpisodeRecall >= b.minEpisodeRecall &&
				cell.FPR <= b.maxFPR
			out = append(out, cell)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Model plane: Byzantine clients vs aggregation rules.

const (
	amSeqLen    = 8
	amHoursFed  = 96
	amTrainFrac = 0.75
	// Containment and breakage bounds on the R² delta vs the clean
	// baseline (see DESIGN.md §14 for the rationale).
	amContainBound = 0.08
	amBreakBound   = 0.2
	// amInitSeed pins the federation's model-init / scheduling seed. On
	// 72-point stations the LSTM's convergence basin is init-sensitive;
	// the matrix measures aggregation robustness under attack, not init
	// luck, so the init stays fixed while Params.Seed still drives the
	// station data, the collusion direction and the data plane.
	amInitSeed = 42
)

func amSpec() nn.Spec { return nn.ForecasterSpec(4, 2) }

// amFrame is one station's prepared training/eval data for the model
// plane, shared across every federation of the sweep.
type amFrame struct {
	scaler      scale.MinMaxScaler
	scaledTrain []float64
	evalWindows []series.Window
	truth       []float64
}

func amFrames(p AttackMatrixParams) ([]*amFrame, error) {
	frames := make([]*amFrame, p.Stations)
	for i := range frames {
		values := chaosSeries(amHoursFed, float64(i)*0.2, p.Seed+uint64(i)*1000003)
		train, test, err := series.SplitValues(values, amTrainFrac)
		if err != nil {
			return nil, err
		}
		var f amFrame
		f.scaledTrain, err = f.scaler.FitTransform(train)
		if err != nil {
			return nil, err
		}
		scaledTest, err := f.scaler.Transform(test)
		if err != nil {
			return nil, err
		}
		ctx := make([]float64, 0, amSeqLen+len(scaledTest))
		ctx = append(ctx, f.scaledTrain[len(f.scaledTrain)-amSeqLen:]...)
		ctx = append(ctx, scaledTest...)
		f.evalWindows, err = series.MakeWindows(ctx, amSeqLen)
		if err != nil {
			return nil, err
		}
		f.truth = test
		frames[i] = &f
	}
	return frames, nil
}

// amGlobalR2 scores a global weight vector on every station's held-out
// windows and returns the mean R² (honest data everywhere: Byzantine
// stations corrupt updates, not their own telemetry).
func amGlobalR2(global []float64, frames []*amFrame) (float64, error) {
	m, err := nn.Build(amSpec(), 1)
	if err != nil {
		return 0, err
	}
	if err := m.SetWeightsVector(global); err != nil {
		return 0, err
	}
	var sum float64
	for _, f := range frames {
		raw := predictWindows(m, f.evalWindows)
		preds := make([]float64, len(raw))
		for i, v := range raw {
			iv, err := f.scaler.InverseValue(v)
			if err != nil {
				return 0, err
			}
			preds[i] = iv
		}
		reg, err := metrics.EvalRegression(f.truth, preds)
		if err != nil {
			return 0, err
		}
		sum += reg.R2
	}
	return sum / float64(len(frames)), nil
}

// amByzantineScale returns the per-kind attack magnitude the matrix uses:
// large enough that an uncontained attack demonstrably breaks the mean,
// well past the break bound.
func amByzantineScale(kind fed.ByzantineKind) float64 {
	switch kind {
	case fed.ByzSignFlip:
		return 25
	case fed.ByzScaledPoison:
		return 50
	default: // collude: N(0, 3) per coordinate swamps O(0.1) weights
		return 3
	}
}

// amFederation runs one model-plane federation: the first f stations are
// wrapped as Byzantine clients of the given kind, the rest stay honest,
// and the configured aggregator combines the round updates (under the
// 2-tier topology, through two edge aggregation nodes of the PR 7 tier).
func amFederation(p AttackMatrixParams, frames []*amFrame, agg fed.Aggregator, kind fed.ByzantineKind, f int, topology string) ([]float64, error) {
	spec := amSpec()
	handles := make([]fed.ClientHandle, p.Stations)
	for i := range handles {
		c, err := fed.NewClient(fmt.Sprintf("st-%d", i), spec, frames[i].scaledTrain, amSeqLen, p.Seed+uint64(i))
		if err != nil {
			return nil, err
		}
		if i < f {
			m, err := fed.NewMaliciousClient(c, fed.ByzantineConfig{
				Kind:          kind,
				Scale:         amByzantineScale(kind),
				CollusionSeed: p.Seed ^ 0xC011D0DE,
			})
			if err != nil {
				return nil, err
			}
			handles[i] = m
			continue
		}
		handles[i] = c
	}
	if topology == "2-tier" {
		per := p.Stations / 2
		edges := make([]fed.ClientHandle, 0, 2)
		for e := 0; e < 2; e++ {
			edge, err := fed.NewEdge(fmt.Sprintf("edge-%d", e), handles[e*per:(e+1)*per], fed.EdgeConfig{
				Parallel: true,
				Seed:     p.Seed + uint64(e),
			})
			if err != nil {
				return nil, err
			}
			edges = append(edges, edge)
		}
		handles = edges
	}
	cfg := fed.Config{
		Rounds:         p.Rounds,
		EpochsPerRound: 6,
		BatchSize:      8,
		LearningRate:   0.01,
		Seed:           amInitSeed,
		Parallel:       true,
		Aggregator:     agg,
	}
	co, err := fed.NewCoordinator(spec, handles, cfg)
	if err != nil {
		return nil, err
	}
	res, err := co.Run()
	if err != nil {
		return nil, err
	}
	return res.Global, nil
}

// amBreakdown returns the aggregator's breakdown point for n clients.
func amBreakdown(name string, n, trim int) int {
	switch name {
	case "median":
		return (n - 1) / 2
	default:
		if name == fmt.Sprintf("trimmed-mean(%d)", trim) {
			return trim
		}
		return 0 // mean: a single Byzantine client owns the aggregate
	}
}

func runContainmentCells(p AttackMatrixParams) ([]AttackMatrixCell, error) {
	frames, err := amFrames(p)
	if err != nil {
		return nil, err
	}
	aggs := []fed.Aggregator{
		fed.MeanAggregator{},
		fed.MedianAggregator{},
		fed.TrimmedMeanAggregator{TrimPerSide: p.TrimPerSide},
	}
	// Per-aggregator clean baselines: the containment reference. (The
	// 2-tier cells reuse them — hierarchy parity proves flat ≡ tiered.)
	cleanR2 := map[string]float64{}
	for _, agg := range aggs {
		global, err := amFederation(p, frames, agg, 0, 0, "flat")
		if err != nil {
			return nil, fmt.Errorf("eval: clean baseline %s: %w", agg.Name(), err)
		}
		r2, err := amGlobalR2(global, frames)
		if err != nil {
			return nil, err
		}
		cleanR2[agg.Name()] = r2
	}

	kinds := []fed.ByzantineKind{fed.ByzSignFlip, fed.ByzScaledPoison, fed.ByzCollude}
	type arm struct {
		agg      fed.Aggregator
		kind     fed.ByzantineKind
		f        int
		topology string
	}
	var arms []arm
	for _, agg := range aggs {
		for _, kind := range kinds {
			for f := 1; f <= 4; f++ {
				arms = append(arms, arm{agg, kind, f, "flat"})
			}
		}
	}
	// Edge-tier spot checks: containment must compose through the PR 7
	// aggregation tier (held partials relay station vectors to the rank
	// aggregators at the root; mean edges fold poison into partials).
	arms = append(arms,
		arm{aggs[0], fed.ByzCollude, 1, "2-tier"},
		arm{aggs[1], fed.ByzCollude, amBreakdown("median", p.Stations, p.TrimPerSide), "2-tier"},
		arm{aggs[1], fed.ByzCollude, amBreakdown("median", p.Stations, p.TrimPerSide) + 1, "2-tier"},
		arm{aggs[2], fed.ByzCollude, p.TrimPerSide, "2-tier"},
	)

	var out []AttackMatrixCell
	for _, a := range arms {
		global, err := amFederation(p, frames, a.agg, a.kind, a.f, a.topology)
		if err != nil {
			return nil, fmt.Errorf("eval: %s f=%d %s/%s: %w", a.kind, a.f, a.agg.Name(), a.topology, err)
		}
		r2, err := amGlobalR2(global, frames)
		if err != nil {
			return nil, err
		}
		clean := cleanR2[a.agg.Name()]
		delta := clean - r2
		if math.IsNaN(r2) || math.IsInf(r2, 0) {
			delta = math.Inf(1)
		}
		bp := amBreakdown(a.agg.Name(), p.Stations, p.TrimPerSide)
		cell := AttackMatrixCell{
			Plane:      "containment",
			Family:     a.kind.String(),
			Intensity:  fmt.Sprintf("f=%d", a.f),
			Aggregator: a.agg.Name(),
			Topology:   a.topology,
			Byzantine:  a.f,
			CleanR2:    clean,
			R2:         r2,
			R2Delta:    delta,
		}
		if a.f <= bp {
			cell.Expect = "contain"
			cell.Bound = amContainBound
			cell.Pass = delta <= amContainBound
		} else {
			cell.Expect = "break"
			cell.Bound = amBreakBound
			cell.Pass = delta >= amBreakBound
		}
		out = append(out, cell)
	}
	return out, nil
}

// RunAttackMatrix executes the full adversarial matrix: the data-plane
// detection sweep followed by the model-plane containment sweep.
func RunAttackMatrix(params AttackMatrixParams) ([]AttackMatrixCell, error) {
	p := params.fill()
	det, err := runDetectionCells(p)
	if err != nil {
		return nil, err
	}
	con, err := runContainmentCells(p)
	if err != nil {
		return nil, err
	}
	return append(det, con...), nil
}

// FormatAttackMatrix renders the matrix as two tables, one per plane.
func FormatAttackMatrix(cells []AttackMatrixCell) string {
	out := "Adversarial matrix — data plane: detection vs ground-truth masks\n"
	out += fmt.Sprintf("%-17s %-5s %6s %6s %6s %6s %6s %9s %9s %s\n",
		"Family", "Level", "Prec", "Rec", "F1", "FPR", "EpRec", "AtkRMSE", "FiltRMSE", "OK")
	for _, c := range cells {
		if c.Plane != "detection" {
			continue
		}
		out += fmt.Sprintf("%-17s %-5s %6.3f %6.3f %6.3f %6.3f %6.2f %9.3f %9.3f %s\n",
			c.Family, c.Intensity, c.Detection.Precision, c.Detection.Recall,
			c.Detection.F1, c.FPR, c.EpisodeRecall, c.AttackedRMSE, c.FilteredRMSE,
			verdict(c.Pass))
	}
	out += "\nAdversarial matrix — model plane: Byzantine containment vs clean baselines\n"
	out += fmt.Sprintf("%-14s %-16s %-7s %3s %-8s %9s %9s %9s %s\n",
		"Attack", "Aggregator", "Tier", "f", "Expect", "CleanR2", "R2", "ΔR2", "OK")
	for _, c := range cells {
		if c.Plane != "containment" {
			continue
		}
		out += fmt.Sprintf("%-14s %-16s %-7s %3d %-8s %9.4f %9.4f %9.4f %s\n",
			c.Family, c.Aggregator, c.Topology, c.Byzantine, c.Expect,
			c.CleanR2, c.R2, c.R2Delta, verdict(c.Pass))
	}
	return out
}

func verdict(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}
