// Package eval is the experiment harness: it wires the dataset, attack,
// detection and training substrates into the paper's four experimental
// scenarios and regenerates every table and figure of the evaluation
// section:
//
//	Table I   — Client 1 MAE/RMSE/R²/time across Clean/Attacked/Filtered
//	            (federated) and Filtered (centralized)
//	Table II  — per-client detection precision/recall/F1
//	Table III — per-client federated vs centralized on filtered data
//	Fig 2     — Client 1 RMSE/MAE bars (clean/attacked/filtered)
//	Fig 3     — per-client R², federated vs centralized
//
// plus the headline scalars (R² improvement, attack recovery, overall
// precision, FPR, training-time reduction).
package eval

import (
	"errors"
	"fmt"

	"github.com/evfed/evfed/internal/anomaly"
	"github.com/evfed/evfed/internal/attack"
	"github.com/evfed/evfed/internal/autoencoder"
	"github.com/evfed/evfed/internal/dataset"
	"github.com/evfed/evfed/internal/fed"
	"github.com/evfed/evfed/internal/metrics"
	"github.com/evfed/evfed/internal/rng"
	"github.com/evfed/evfed/internal/scale"
	"github.com/evfed/evfed/internal/series"
)

// ErrBadParams is returned for invalid harness parameters.
var ErrBadParams = errors.New("eval: invalid parameters")

// Params bundles every knob of the pipeline. PaperParams reproduces the
// paper's configuration; QuickParams is a scaled-down variant for tests
// and CI benchmarks.
type Params struct {
	// Hours is the per-client series length (paper: 4,344).
	Hours int
	// Seed drives the whole pipeline deterministically.
	Seed uint64
	// TrainFrac is the temporal train split (paper: 0.8).
	TrainFrac float64

	// SeqLen, LSTMUnits and DenseHidden shape the forecaster (24/50/10).
	SeqLen, LSTMUnits, DenseHidden int
	// Rounds and EpochsPerRound are the federated schedule (5/10).
	Rounds, EpochsPerRound int
	// BatchSize and LearningRate are shared by all trainers (32/1e-3).
	BatchSize int
	// LearningRate is the Adam step size.
	LearningRate float64
	// Workers bounds gradient parallelism per trainer (0 = GOMAXPROCS).
	Workers int

	// ClientFraction optionally samples a McMahan C-fraction of clients
	// per federated round (0 or 1 = all clients participate every round).
	// Large federations use this to keep per-round cost flat.
	ClientFraction float64
	// MaxConcurrentClients bounds the federated coordinator's per-round
	// training fan-out (0 = one goroutine per selected client).
	MaxConcurrentClients int
	// UpdateCodec selects the federated wire compression (fed.CodecNone,
	// fed.CodecF32 or fed.CodecQ8). In-process federated runs simulate
	// the codec's exact value round trip, so accuracy parity between
	// codecs is measurable without a network; the coordinator reports the
	// matching modeled bytes per round.
	UpdateCodec fed.Codec

	// CentralizedRaw feeds the centralized baseline raw pooled kWh values,
	// the paper's literal §II-C1 protocol ("reshaped combined sequences
	// from all clients, processed jointly ... without preprocessing").
	// The default (false) instead gives the centralized arm a joint MinMax
	// scaler — the fairness-controlled comparison, which is also the
	// harder test for the federated architecture.
	CentralizedRaw bool

	// EvalAgainstClean switches the evaluation target. The paper's
	// protocol (false, the default) scores each scenario against its own
	// test series — attacked predictions against the attacked stream,
	// filtered against the filtered stream — which is how Table I's modest
	// attack degradation arises (spikes inflate the R² denominator).
	// Setting true scores every scenario against the true clean demand
	// instead: the stricter "trustworthy forecasting" measure this
	// repository reports alongside the paper protocol.
	EvalAgainstClean bool

	// AE configures the anomaly detector (autoencoder hyperparameters).
	AE autoencoder.Config
	// Filter configures thresholding and mitigation.
	Filter anomaly.Config
	// Schedule and Traffic configure the DDoS injection.
	Schedule attack.ScheduleConfig
	// Traffic carries the published packet rates.
	Traffic attack.TrafficConfig
}

// PaperParams returns the paper's full configuration.
func PaperParams(seed uint64) Params {
	return Params{
		Hours:     dataset.StudyHours,
		Seed:      seed,
		TrainFrac: 0.8,
		SeqLen:    24, LSTMUnits: 50, DenseHidden: 10,
		Rounds: 5, EpochsPerRound: 10,
		BatchSize: 32, LearningRate: 0.001,
		AE:       autoencoder.DefaultConfig(),
		Filter:   anomaly.DefaultConfig(),
		Schedule: attack.DefaultSchedule(),
		Traffic:  attack.DefaultTraffic(),
	}
}

// QuickParams returns a reduced configuration (~1,200 hours, small
// models, few epochs) that preserves the pipeline shape while running in
// seconds. Used by integration tests and testing.B benchmarks.
func QuickParams(seed uint64) Params {
	p := PaperParams(seed)
	p.Hours = 1200
	p.LSTMUnits = 20
	p.DenseHidden = 8
	p.Rounds = 3
	p.EpochsPerRound = 4
	p.AE.EncoderUnits = 12
	p.AE.Bottleneck = 6
	p.AE.Epochs = 6
	p.AE.TrainStride = 3
	p.Schedule.Episodes = 6
	return p
}

func (p Params) validate() error {
	switch {
	case p.Hours <= p.SeqLen*3:
		return fmt.Errorf("%w: hours %d too small for seqLen %d", ErrBadParams, p.Hours, p.SeqLen)
	case p.TrainFrac <= 0 || p.TrainFrac >= 1:
		return fmt.Errorf("%w: train fraction %v", ErrBadParams, p.TrainFrac)
	case p.SeqLen <= 0 || p.LSTMUnits <= 0 || p.DenseHidden <= 0:
		return fmt.Errorf("%w: model dims %d/%d/%d", ErrBadParams, p.SeqLen, p.LSTMUnits, p.DenseHidden)
	case p.Rounds <= 0 || p.EpochsPerRound <= 0 || p.BatchSize <= 0 || p.LearningRate <= 0:
		return fmt.Errorf("%w: training schedule", ErrBadParams)
	case p.ClientFraction < 0 || p.ClientFraction > 1:
		return fmt.Errorf("%w: client fraction %v", ErrBadParams, p.ClientFraction)
	case p.MaxConcurrentClients < 0:
		return fmt.Errorf("%w: max concurrent clients %d", ErrBadParams, p.MaxConcurrentClients)
	case p.UpdateCodec > fed.CodecQ8:
		return fmt.Errorf("%w: update codec %d", ErrBadParams, p.UpdateCodec)
	}
	return nil
}

// ClientPrep is one client's prepared data: the three data scenarios plus
// detection ground truth and quality.
type ClientPrep struct {
	// Zone is the traffic-zone id ("102", "105", "108").
	Zone string
	// Clean, Attacked and Filtered are the three data scenarios (kWh).
	Clean, Attacked, Filtered []float64
	// Labels is the ground-truth attack mask.
	Labels []bool
	// Flags is the detector's point decisions on the attacked series.
	Flags []bool
	// Detection summarizes detection quality against Labels.
	Detection metrics.Detection
	// Threshold is the calibrated reconstruction-error threshold.
	Threshold float64
}

// calibTailFrac is the trailing fraction of a detector's (clean) training
// split on which its threshold is calibrated. The autoencoder's early
// stopping already holds this tail out of gradient updates, so scores
// there estimate the generalization error distribution — calibrating on
// data the autoencoder memorized would place the 98th-percentile
// threshold too low and inflate the false-positive rate.
const calibTailFrac = 0.1

// TrainFilter is the paper's per-client detector build: it trains the
// LSTM autoencoder on train (scaled to [0, 1], assumed attack-free) and
// calibrates the filter's percentile threshold on the trailing
// calibTailFrac of train, keeping SeqLen points of leading context so the
// tail's first points sit in full reconstruction windows.
func TrainFilter(train []float64, aeCfg autoencoder.Config, filtCfg anomaly.Config) (*anomaly.Filter, *autoencoder.Detector, error) {
	det, _, err := autoencoder.Train(train, aeCfg)
	if err != nil {
		return nil, nil, err
	}
	filter, err := anomaly.NewFilter(autoencoder.Adapter{Detector: det}, filtCfg)
	if err != nil {
		return nil, nil, err
	}
	calib := train
	if ctx := int(float64(len(train))*(1-calibTailFrac)) - aeCfg.SeqLen; ctx > 0 {
		calib = train[ctx:]
	}
	if err := filter.Calibrate(calib); err != nil {
		return nil, nil, err
	}
	return filter, det, nil
}

// Prepare generates the three study clients, injects DDoS attacks, trains
// the per-client autoencoder detectors on normal training data, calibrates
// the 98th-percentile thresholds, and produces the filtered series.
func Prepare(p Params) ([]*ClientPrep, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	profiles := []dataset.ZoneProfile{
		dataset.Profile102(), dataset.Profile105(), dataset.Profile108(),
	}
	out := make([]*ClientPrep, 0, len(profiles))
	for ci, prof := range profiles {
		gen, err := dataset.Generate(dataset.Config{Profile: prof, Hours: p.Hours, Seed: p.Seed})
		if err != nil {
			return nil, fmt.Errorf("eval: generate client %d: %w", ci+1, err)
		}
		clean := gen.Series.Values

		// Attack injection across the full horizon.
		atkRNG := rng.New(p.Seed ^ (uint64(ci+1) * 0xa77ac4))
		eps, err := attack.Schedule(p.Schedule, len(clean), 0, atkRNG)
		if err != nil {
			return nil, fmt.Errorf("eval: schedule attacks for client %d: %w", ci+1, err)
		}
		injected, err := attack.InjectDDoS(clean, eps, p.Traffic, atkRNG)
		if err != nil {
			return nil, fmt.Errorf("eval: inject attacks for client %d: %w", ci+1, err)
		}

		// Detector: trained on the normal (clean) training split, in the
		// clean-train scaling frame, exactly as the paper prescribes
		// ("trained exclusively on normal data segments").
		cleanTrain, _, err := series.SplitValues(clean, p.TrainFrac)
		if err != nil {
			return nil, fmt.Errorf("eval: split client %d: %w", ci+1, err)
		}
		var sc scale.MinMaxScaler
		scaledTrain, err := sc.FitTransform(cleanTrain)
		if err != nil {
			return nil, fmt.Errorf("eval: scale client %d: %w", ci+1, err)
		}
		aeCfg := p.AE
		aeCfg.SeqLen = p.SeqLen
		aeCfg.Seed = p.Seed + uint64(ci)*7919
		aeCfg.Workers = p.Workers
		filter, _, err := TrainFilter(scaledTrain, aeCfg, p.Filter)
		if err != nil {
			return nil, fmt.Errorf("eval: detector for client %d: %w", ci+1, err)
		}

		// Detect + mitigate on the attacked series (same scaling frame).
		scaledAttacked, err := sc.Transform(injected.Values)
		if err != nil {
			return nil, fmt.Errorf("eval: scale attacked client %d: %w", ci+1, err)
		}
		res, err := filter.Apply(scaledAttacked)
		if err != nil {
			return nil, fmt.Errorf("eval: filter client %d: %w", ci+1, err)
		}
		filtered, err := sc.Inverse(res.Filtered)
		if err != nil {
			return nil, fmt.Errorf("eval: unscale filtered client %d: %w", ci+1, err)
		}
		conf, err := metrics.EvalDetection(injected.Labels, res.Flags)
		if err != nil {
			return nil, fmt.Errorf("eval: detection metrics client %d: %w", ci+1, err)
		}
		thr, err := filter.Threshold()
		if err != nil {
			return nil, err
		}
		out = append(out, &ClientPrep{
			Zone:      prof.Zone,
			Clean:     clean,
			Attacked:  injected.Values,
			Filtered:  filtered,
			Labels:    injected.Labels,
			Flags:     res.Flags,
			Detection: metrics.Summarize(conf),
			Threshold: thr,
		})
	}
	return out, nil
}
