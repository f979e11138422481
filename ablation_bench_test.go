// Ablation benchmarks for the design choices DESIGN.md §4 calls out,
// covering the paper's future-work directions (§III-G): alternative
// mitigation/reconstruction methods, statistical detector baselines,
// additional attack vectors, the federated round/epoch trade-off, client
// failure resilience, and classical forecasting baselines.
package evfed_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/evfed/evfed/internal/anomaly"
	"github.com/evfed/evfed/internal/attack"
	"github.com/evfed/evfed/internal/autoencoder"
	"github.com/evfed/evfed/internal/baseline"
	"github.com/evfed/evfed/internal/eval"
	"github.com/evfed/evfed/internal/fed"
	"github.com/evfed/evfed/internal/metrics"
	"github.com/evfed/evfed/internal/nn"
	"github.com/evfed/evfed/internal/rng"
	"github.com/evfed/evfed/internal/scale"
	"github.com/evfed/evfed/internal/series"
)

// detectionFixture is the shared single-client detection testbed: clean
// zone-102 data, a DDoS campaign, a trained autoencoder and the scaling
// frame — everything a detection ablation needs.
type detectionFixture struct {
	clean, attacked []float64
	labels          []bool
	scaledTrain     []float64
	scaledAttacked  []float64
	det             *autoencoder.Detector
	scaler          scale.MinMaxScaler
}

var detFixture struct {
	once sync.Once
	v    *detectionFixture
	err  error
}

func getDetectionFixture(b *testing.B) *detectionFixture {
	b.Helper()
	detFixture.once.Do(func() {
		detFixture.v, detFixture.err = buildDetectionFixture()
	})
	if detFixture.err != nil {
		b.Fatal(detFixture.err)
	}
	return detFixture.v
}

func buildDetectionFixture() (*detectionFixture, error) {
	prepOnce.Do(func() {
		prepClients, prepErr = eval.Prepare(benchParams())
	})
	if prepErr != nil {
		return nil, prepErr
	}
	c := prepClients[0]
	fx := &detectionFixture{clean: c.Clean, attacked: c.Attacked, labels: c.Labels}
	train, _, err := series.SplitValues(fx.clean, 0.8)
	if err != nil {
		return nil, err
	}
	fx.scaledTrain, err = fx.scaler.FitTransform(train)
	if err != nil {
		return nil, err
	}
	fx.scaledAttacked, err = fx.scaler.Transform(fx.attacked)
	if err != nil {
		return nil, err
	}
	p := benchParams()
	aeCfg := p.AE
	aeCfg.SeqLen = p.SeqLen
	aeCfg.Seed = 99
	fx.det, _, err = autoencoder.Train(fx.scaledTrain, aeCfg)
	return fx, err
}

// BenchmarkAblation_Threshold sweeps the detection percentile around the
// paper's 98, reporting the precision/recall trade-off.
func BenchmarkAblation_Threshold(b *testing.B) {
	for _, pct := range []float64{90, 95, 98, 99.5} {
		b.Run(fmt.Sprintf("pct%.1f", pct), func(b *testing.B) {
			fx := getDetectionFixture(b)
			cfg := anomaly.DefaultConfig()
			cfg.ThresholdPercentile = pct
			var det metrics.Detection
			for i := 0; i < b.N; i++ {
				f, err := anomaly.NewFilter(autoencoder.Adapter{Detector: fx.det}, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := f.Calibrate(fx.scaledTrain); err != nil {
					b.Fatal(err)
				}
				res, err := f.Apply(fx.scaledAttacked)
				if err != nil {
					b.Fatal(err)
				}
				conf, err := metrics.EvalDetection(fx.labels, res.Flags)
				if err != nil {
					b.Fatal(err)
				}
				det = metrics.Summarize(conf)
			}
			b.ReportMetric(det.Precision, "precision")
			b.ReportMetric(det.Recall, "recall")
			b.ReportMetric(100*det.FPR, "fpr_pct")
		})
	}
}

// BenchmarkAblation_Mitigation compares repair methods by how close the
// mitigated series lands to the clean truth (mean absolute deviation in
// kWh; the paper's linear interpolation versus §III-G's alternatives).
func BenchmarkAblation_Mitigation(b *testing.B) {
	methods := []anomaly.Mitigation{
		anomaly.MitigateLinear, anomaly.MitigateCubic,
		anomaly.MitigateSeasonal, anomaly.MitigateZero,
	}
	for _, m := range methods {
		b.Run(m.String(), func(b *testing.B) {
			fx := getDetectionFixture(b)
			cfg := anomaly.DefaultConfig()
			cfg.Mitigation = m
			var mad float64
			for i := 0; i < b.N; i++ {
				f, err := anomaly.NewFilter(autoencoder.Adapter{Detector: fx.det}, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := f.Calibrate(fx.scaledTrain); err != nil {
					b.Fatal(err)
				}
				res, err := f.Apply(fx.scaledAttacked)
				if err != nil {
					b.Fatal(err)
				}
				filtered, err := fx.scaler.Inverse(res.Filtered)
				if err != nil {
					b.Fatal(err)
				}
				var sum float64
				for k := range filtered {
					d := filtered[k] - fx.clean[k]
					if d < 0 {
						d = -d
					}
					sum += d
				}
				mad = sum / float64(len(filtered))
			}
			b.ReportMetric(mad, "mean_abs_dev_kwh")
		})
	}
}

// BenchmarkAblation_Detector compares the LSTM autoencoder against the
// MSD and MAD statistical baselines on identical attacked data.
func BenchmarkAblation_Detector(b *testing.B) {
	scorerFor := func(name string, fx *detectionFixture) anomaly.Scorer {
		switch name {
		case "autoencoder":
			return autoencoder.Adapter{Detector: fx.det}
		case "msd":
			return &anomaly.MSD{}
		case "msd-rolling":
			return &anomaly.MSD{Window: 48}
		default:
			return anomaly.MAD{}
		}
	}
	for _, name := range []string{"autoencoder", "msd", "msd-rolling", "mad"} {
		b.Run(name, func(b *testing.B) {
			fx := getDetectionFixture(b)
			var det metrics.Detection
			for i := 0; i < b.N; i++ {
				f, err := anomaly.NewFilter(scorerFor(name, fx), anomaly.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				if err := f.Calibrate(fx.scaledTrain); err != nil {
					b.Fatal(err)
				}
				res, err := f.Apply(fx.scaledAttacked)
				if err != nil {
					b.Fatal(err)
				}
				conf, err := metrics.EvalDetection(fx.labels, res.Flags)
				if err != nil {
					b.Fatal(err)
				}
				det = metrics.Summarize(conf)
			}
			b.ReportMetric(det.Precision, "precision")
			b.ReportMetric(det.Recall, "recall")
			b.ReportMetric(det.F1, "f1")
		})
	}
}

// BenchmarkAblation_AttackVector measures how well the DDoS-tuned
// detector generalizes to the paper's future-work attack vectors: false
// data injection and temporal pattern disruption.
func BenchmarkAblation_AttackVector(b *testing.B) {
	type vector struct {
		name   string
		inject func(vals []float64, eps []attack.Episode, r *rng.Source) (*attack.Result, error)
	}
	vectors := []vector{
		{"ddos", func(vals []float64, eps []attack.Episode, r *rng.Source) (*attack.Result, error) {
			return attack.InjectDDoS(vals, eps, attack.DefaultTraffic(), r)
		}},
		{"false-data", func(vals []float64, eps []attack.Episode, r *rng.Source) (*attack.Result, error) {
			return attack.InjectFalseData(vals, eps, 0.3, r)
		}},
		{"temporal", func(vals []float64, eps []attack.Episode, r *rng.Source) (*attack.Result, error) {
			return attack.InjectTemporalDisruption(vals, eps, r)
		}},
	}
	for _, v := range vectors {
		b.Run(v.name, func(b *testing.B) {
			fx := getDetectionFixture(b)
			r := rng.New(555)
			sched := attack.DefaultSchedule()
			sched.Episodes = 6 // fit the reduced 900-hour fixture
			eps, err := attack.Schedule(sched, len(fx.clean), 0, r)
			if err != nil {
				b.Fatal(err)
			}
			var det metrics.Detection
			for i := 0; i < b.N; i++ {
				injected, err := v.inject(fx.clean, eps, rng.New(556))
				if err != nil {
					b.Fatal(err)
				}
				scaled, err := fx.scaler.Transform(injected.Values)
				if err != nil {
					b.Fatal(err)
				}
				f, err := anomaly.NewFilter(autoencoder.Adapter{Detector: fx.det}, anomaly.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				if err := f.Calibrate(fx.scaledTrain); err != nil {
					b.Fatal(err)
				}
				res, err := f.Apply(scaled)
				if err != nil {
					b.Fatal(err)
				}
				conf, err := metrics.EvalDetection(injected.Labels, res.Flags)
				if err != nil {
					b.Fatal(err)
				}
				det = metrics.Summarize(conf)
			}
			b.ReportMetric(det.Recall, "recall")
			b.ReportMetric(det.Precision, "precision")
		})
	}
}

// BenchmarkAblation_Rounds trades federated rounds against local epochs
// at a fixed total epoch budget, reporting Client 1 R².
func BenchmarkAblation_Rounds(b *testing.B) {
	const totalEpochs = 6
	for _, rounds := range []int{1, 2, 3, 6} {
		b.Run(fmt.Sprintf("rounds%d", rounds), func(b *testing.B) {
			clients := preparedClients(b)
			p := benchParams()
			p.Rounds = rounds
			p.EpochsPerRound = totalEpochs / rounds
			vals, zones := clientSeriesSet(clients, func(c *eval.ClientPrep) []float64 { return c.Clean })
			var r2 float64
			for i := 0; i < b.N; i++ {
				res, err := eval.RunFederated("clean", vals, vals, zones, p)
				if err != nil {
					b.Fatal(err)
				}
				r2 = res.PerClient[0].R2
			}
			b.ReportMetric(r2, "r2")
		})
	}
}

// BenchmarkAblation_Failures injects client dropout into the federation
// and reports the surviving global model's Client 1 R² — the resilience
// through-redundancy claim (§III-F).
func BenchmarkAblation_Failures(b *testing.B) {
	for _, drop := range []float64{0, 0.2, 0.4} {
		b.Run(fmt.Sprintf("dropout%.0f%%", 100*drop), func(b *testing.B) {
			clients := preparedClients(b)
			p := benchParams()
			spec := nn.ForecasterSpec(p.LSTMUnits, p.DenseHidden)
			var r2 float64
			for i := 0; i < b.N; i++ {
				// Build fresh federated clients over scaled clean data.
				var handles []fed.ClientHandle
				frames := make([]*struct {
					sc   scale.MinMaxScaler
					test []float64
					ws   []series.Window
				}, len(clients))
				for ci, c := range clients {
					train, test, err := series.SplitValues(c.Clean, 0.8)
					if err != nil {
						b.Fatal(err)
					}
					fr := &struct {
						sc   scale.MinMaxScaler
						test []float64
						ws   []series.Window
					}{}
					scaledTrain, err := fr.sc.FitTransform(train)
					if err != nil {
						b.Fatal(err)
					}
					scaledTest, err := fr.sc.Transform(test)
					if err != nil {
						b.Fatal(err)
					}
					ctx := append(append([]float64{}, scaledTrain[len(scaledTrain)-p.SeqLen:]...), scaledTest...)
					fr.ws, err = series.MakeWindows(ctx, p.SeqLen)
					if err != nil {
						b.Fatal(err)
					}
					fr.test = test
					frames[ci] = fr
					cl, err := fed.NewClient(c.Zone, spec, scaledTrain, p.SeqLen, uint64(ci+1))
					if err != nil {
						b.Fatal(err)
					}
					handles = append(handles, cl)
				}
				cfg := fed.Config{
					Rounds:         p.Rounds,
					EpochsPerRound: p.EpochsPerRound,
					BatchSize:      p.BatchSize,
					LearningRate:   p.LearningRate,
					Seed:           uint64(77 + i),
					Parallel:       true,
				}
				if drop > 0 {
					cfg.Failures = &fed.FailurePlan{DropoutProb: drop}
				}
				co, err := fed.NewCoordinator(spec, handles, cfg)
				if err != nil {
					b.Fatal(err)
				}
				run, err := co.Run()
				if err != nil {
					b.Fatal(err)
				}
				global, err := co.GlobalModel(run)
				if err != nil {
					b.Fatal(err)
				}
				// Client 1 R² with the surviving global model.
				fr := frames[0]
				preds := make([]float64, len(fr.ws))
				for k, w := range fr.ws {
					out := global.Predict(w.Input)
					v, err := fr.sc.InverseValue(out[0][0])
					if err != nil {
						b.Fatal(err)
					}
					preds[k] = v
				}
				reg, err := metrics.EvalRegression(fr.test, preds)
				if err != nil {
					b.Fatal(err)
				}
				r2 = reg.R2
			}
			b.ReportMetric(r2, "r2")
		})
	}
}

// BenchmarkAblation_Baselines scores the classical forecasters the paper's
// introduction positions LSTM against, on Client 1's clean data.
func BenchmarkAblation_Baselines(b *testing.B) {
	forecasters := map[string]baseline.Forecaster{
		"persistence":    baseline.Persistence{},
		"seasonal-naive": baseline.SeasonalNaive{Period: 24},
		"ridge":          &baseline.Ridge{SeqLen: 48, Lambda: 0.1},
	}
	for _, name := range []string{"persistence", "seasonal-naive", "ridge"} {
		b.Run(name, func(b *testing.B) {
			clients := preparedClients(b)
			clean := clients[0].Clean
			train, test, err := series.SplitValues(clean, 0.8)
			if err != nil {
				b.Fatal(err)
			}
			// Context so the first test point has a full look-back.
			ctx := append(append([]float64{}, train[len(train)-48:]...), test...)
			var reg metrics.Regression
			for i := 0; i < b.N; i++ {
				f := forecasters[name]
				if err := f.Fit(train); err != nil {
					b.Fatal(err)
				}
				truth, preds, err := baseline.EvalOneStep(f, ctx, 48)
				if err != nil {
					b.Fatal(err)
				}
				reg, err = metrics.EvalRegression(truth, preds)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(reg.RMSE, "rmse_kwh")
			b.ReportMetric(reg.R2, "r2")
		})
	}
}

// BenchmarkAblation_Architecture compares the paper's LSTM forecaster
// against a feedforward variant on Client 1's clean data — the
// related-work claim that LSTM's gating best captures long temporal
// dependencies (§I).
func BenchmarkAblation_Architecture(b *testing.B) {
	for _, arch := range []string{"lstm", "dense"} {
		b.Run(arch, func(b *testing.B) {
			clients := preparedClients(b)
			p := benchParams()
			train, test, err := series.SplitValues(clients[0].Clean, 0.8)
			if err != nil {
				b.Fatal(err)
			}
			var sc scale.MinMaxScaler
			scaledTrain, err := sc.FitTransform(train)
			if err != nil {
				b.Fatal(err)
			}
			scaledTest, err := sc.Transform(test)
			if err != nil {
				b.Fatal(err)
			}
			ctx := append(append([]float64{}, scaledTrain[len(scaledTrain)-p.SeqLen:]...), scaledTest...)
			ws, err := series.MakeWindows(ctx, p.SeqLen)
			if err != nil {
				b.Fatal(err)
			}
			trainWs, err := series.MakeWindows(scaledTrain, p.SeqLen)
			if err != nil {
				b.Fatal(err)
			}
			var spec nn.Spec
			flatten := false
			switch arch {
			case "lstm":
				spec = nn.ForecasterSpec(p.LSTMUnits, p.DenseHidden)
			case "dense":
				spec = nn.DenseForecasterSpec(p.SeqLen, 2*p.DenseHidden)
				flatten = true
			}
			var reg metrics.Regression
			for i := 0; i < b.N; i++ {
				m, err := nn.Build(spec, 7)
				if err != nil {
					b.Fatal(err)
				}
				var inputs, targets []nn.Seq
				for _, w := range trainWs {
					in := w.Input
					if flatten {
						in = nn.FlattenWindow(in)
					}
					inputs = append(inputs, in)
					targets = append(targets, nn.Seq{{w.Target}})
				}
				cfg := nn.DefaultTrainConfig(p.Rounds*p.EpochsPerRound, 8)
				cfg.BatchSize = p.BatchSize
				if _, err := nn.Fit(m, inputs, targets, cfg); err != nil {
					b.Fatal(err)
				}
				preds := make([]float64, len(ws))
				for k, w := range ws {
					in := w.Input
					if flatten {
						in = nn.FlattenWindow(in)
					}
					out := m.Predict(in)
					v, err := sc.InverseValue(out[0][0])
					if err != nil {
						b.Fatal(err)
					}
					preds[k] = v
				}
				reg, err = metrics.EvalRegression(test, preds)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(reg.R2, "r2")
			b.ReportMetric(reg.RMSE, "rmse_kwh")
		})
	}
}

// BenchmarkAblation_Aggregator compares aggregation rules under a
// model-poisoning client (one station scales its update by 100×),
// reporting how far the honest Client 1's accuracy survives.
func BenchmarkAblation_Aggregator(b *testing.B) {
	for _, name := range []string{"fedavg", "median", "trimmed"} {
		b.Run(name, func(b *testing.B) {
			clients := preparedClients(b)
			p := benchParams()
			agg, err := fed.NewAggregator(name)
			if err != nil {
				b.Fatal(err)
			}
			spec := nn.ForecasterSpec(p.LSTMUnits, p.DenseHidden)
			var r2 float64
			for i := 0; i < b.N; i++ {
				var handles []fed.ClientHandle
				var eval0 struct {
					sc   scale.MinMaxScaler
					test []float64
					ws   []series.Window
				}
				var local0 *fed.Client
				for ci, c := range clients {
					train, test, err := series.SplitValues(c.Clean, 0.8)
					if err != nil {
						b.Fatal(err)
					}
					var sc scale.MinMaxScaler
					scaledTrain, err := sc.FitTransform(train)
					if err != nil {
						b.Fatal(err)
					}
					cl, err := fed.NewClient(c.Zone, spec, scaledTrain, p.SeqLen, uint64(ci+1))
					if err != nil {
						b.Fatal(err)
					}
					if ci == 0 {
						scaledTest, err := sc.Transform(test)
						if err != nil {
							b.Fatal(err)
						}
						ctx := append(append([]float64{}, scaledTrain[len(scaledTrain)-p.SeqLen:]...), scaledTest...)
						eval0.ws, err = series.MakeWindows(ctx, p.SeqLen)
						if err != nil {
							b.Fatal(err)
						}
						eval0.sc = sc
						eval0.test = test
						local0 = cl
					}
					if ci == len(clients)-1 {
						handles = append(handles, &scalingHandle{inner: cl, scale: 100})
					} else {
						handles = append(handles, cl)
					}
				}
				cfg := fed.Config{
					Rounds:         p.Rounds,
					EpochsPerRound: p.EpochsPerRound,
					BatchSize:      p.BatchSize,
					LearningRate:   p.LearningRate,
					Seed:           uint64(90 + i),
					Parallel:       true,
					Aggregator:     agg,
				}
				co, err := fed.NewCoordinator(spec, handles, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := co.Run(); err != nil {
					b.Fatal(err)
				}
				preds := make([]float64, len(eval0.ws))
				for k, w := range eval0.ws {
					out := local0.Model().Predict(w.Input)
					v, err := eval0.sc.InverseValue(out[0][0])
					if err != nil {
						b.Fatal(err)
					}
					preds[k] = v
				}
				reg, err := metrics.EvalRegression(eval0.test, preds)
				if err != nil {
					b.Fatal(err)
				}
				r2 = reg.R2
			}
			b.ReportMetric(r2, "honest_client_r2")
		})
	}
}

// scalingHandle poisons a client's updates by scaling the weights.
type scalingHandle struct {
	inner fed.ClientHandle
	scale float64
}

func (s *scalingHandle) ID() string               { return s.inner.ID() }
func (s *scalingHandle) NumSamples() (int, error) { return s.inner.NumSamples() }
func (s *scalingHandle) Train(global []float64, cfg fed.LocalTrainConfig) (fed.Update, error) {
	u, err := s.inner.Train(global, cfg)
	if err != nil {
		return u, err
	}
	for i := range u.Weights {
		u.Weights[i] *= s.scale
	}
	return u, nil
}

// BenchmarkAblation_Scalability sweeps federation size, reporting the
// wall-clock vs sequential-compute scaling of §III-F.
func BenchmarkAblation_Scalability(b *testing.B) {
	for _, n := range []int{3, 6, 12} {
		b.Run(fmt.Sprintf("clients%d", n), func(b *testing.B) {
			p := benchParams()
			p.Hours = 600
			p.Rounds = 1
			p.EpochsPerRound = 2
			var pts []eval.ScalabilityPoint
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = eval.RunScalability([]int{n}, p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pts[0].WallSeconds, "wall_s")
			b.ReportMetric(pts[0].ClientSeconds, "client_cpu_s")
			b.ReportMetric(pts[0].MeanR2, "mean_r2")
		})
	}
}

// BenchmarkAblation_Privacy sweeps the differential-privacy noise scale,
// reporting the privacy/utility trade-off on Client 1 (clip 1.0).
func BenchmarkAblation_Privacy(b *testing.B) {
	for _, noise := range []float64{0, 0.001, 0.01, 0.05} {
		b.Run(fmt.Sprintf("noise%g", noise), func(b *testing.B) {
			clients := preparedClients(b)
			p := benchParams()
			p.Rounds = 3
			p.EpochsPerRound = 4
			spec := nn.ForecasterSpec(p.LSTMUnits, p.DenseHidden)
			var r2 float64
			for i := 0; i < b.N; i++ {
				var handles []fed.ClientHandle
				var eval0 struct {
					sc   scale.MinMaxScaler
					test []float64
					ws   []series.Window
				}
				var local0 *fed.Client
				for ci, c := range clients {
					train, test, err := series.SplitValues(c.Clean, 0.8)
					if err != nil {
						b.Fatal(err)
					}
					var sc scale.MinMaxScaler
					scaledTrain, err := sc.FitTransform(train)
					if err != nil {
						b.Fatal(err)
					}
					cl, err := fed.NewClient(c.Zone, spec, scaledTrain, p.SeqLen, uint64(ci+1))
					if err != nil {
						b.Fatal(err)
					}
					if ci == 0 {
						scaledTest, err := sc.Transform(test)
						if err != nil {
							b.Fatal(err)
						}
						ctx := append(append([]float64{}, scaledTrain[len(scaledTrain)-p.SeqLen:]...), scaledTest...)
						eval0.ws, err = series.MakeWindows(ctx, p.SeqLen)
						if err != nil {
							b.Fatal(err)
						}
						eval0.sc = sc
						eval0.test = test
						local0 = cl
					}
					handles = append(handles, cl)
				}
				cfg := fed.Config{
					Rounds:         p.Rounds,
					EpochsPerRound: p.EpochsPerRound,
					BatchSize:      p.BatchSize,
					LearningRate:   p.LearningRate,
					Seed:           uint64(120 + i),
					Parallel:       true,
				}
				if noise > 0 {
					cfg.Privacy = fed.Privacy{ClipNorm: 5, NoiseStd: noise}
				}
				co, err := fed.NewCoordinator(spec, handles, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := co.Run(); err != nil {
					b.Fatal(err)
				}
				preds := make([]float64, len(eval0.ws))
				for k, w := range eval0.ws {
					out := local0.Model().Predict(w.Input)
					v, err := eval0.sc.InverseValue(out[0][0])
					if err != nil {
						b.Fatal(err)
					}
					preds[k] = v
				}
				reg, err := metrics.EvalRegression(eval0.test, preds)
				if err != nil {
					b.Fatal(err)
				}
				r2 = reg.R2
			}
			b.ReportMetric(r2, "r2")
		})
	}
}

// BenchmarkAblation_FedProx sweeps the FedProx proximal coefficient,
// reporting Client 1 R²: μ = 0 is plain FedAvg; larger μ restrains local
// drift on heterogeneous zones at the cost of local specialization.
func BenchmarkAblation_FedProx(b *testing.B) {
	for _, mu := range []float64{0, 0.001, 0.01, 0.1} {
		b.Run(fmt.Sprintf("mu%g", mu), func(b *testing.B) {
			clients := preparedClients(b)
			p := benchParams()
			spec := nn.ForecasterSpec(p.LSTMUnits, p.DenseHidden)
			var r2 float64
			for i := 0; i < b.N; i++ {
				var handles []fed.ClientHandle
				var eval0 struct {
					sc   scale.MinMaxScaler
					test []float64
					ws   []series.Window
				}
				var local0 *fed.Client
				for ci, c := range clients {
					train, test, err := series.SplitValues(c.Clean, 0.8)
					if err != nil {
						b.Fatal(err)
					}
					var sc scale.MinMaxScaler
					scaledTrain, err := sc.FitTransform(train)
					if err != nil {
						b.Fatal(err)
					}
					cl, err := fed.NewClient(c.Zone, spec, scaledTrain, p.SeqLen, uint64(ci+1))
					if err != nil {
						b.Fatal(err)
					}
					if ci == 0 {
						scaledTest, err := sc.Transform(test)
						if err != nil {
							b.Fatal(err)
						}
						ctx := append(append([]float64{}, scaledTrain[len(scaledTrain)-p.SeqLen:]...), scaledTest...)
						eval0.ws, err = series.MakeWindows(ctx, p.SeqLen)
						if err != nil {
							b.Fatal(err)
						}
						eval0.sc = sc
						eval0.test = test
						local0 = cl
					}
					handles = append(handles, cl)
				}
				cfg := fed.Config{
					Rounds:         p.Rounds,
					EpochsPerRound: p.EpochsPerRound,
					BatchSize:      p.BatchSize,
					LearningRate:   p.LearningRate,
					Seed:           uint64(150 + i),
					Parallel:       true,
					ProximalMu:     mu,
				}
				co, err := fed.NewCoordinator(spec, handles, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := co.Run(); err != nil {
					b.Fatal(err)
				}
				preds := make([]float64, len(eval0.ws))
				for k, w := range eval0.ws {
					out := local0.Model().Predict(w.Input)
					v, err := eval0.sc.InverseValue(out[0][0])
					if err != nil {
						b.Fatal(err)
					}
					preds[k] = v
				}
				reg, err := metrics.EvalRegression(eval0.test, preds)
				if err != nil {
					b.Fatal(err)
				}
				r2 = reg.R2
			}
			b.ReportMetric(r2, "r2")
		})
	}
}
