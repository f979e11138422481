package eval

import (
	"testing"

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

// TestTrainFilterRoundTrip runs one station the way a deployment would:
// generate data, attack it, train a filter on the clean training split,
// detect on the attacked stream, then federate forecasters over the same
// split. The threshold must be the percentile over the held-out tail.
func TestTrainFilterRoundTrip(t *testing.T) {
	const hours = 2000
	gen, err := dataset.Generate(dataset.Config{Profile: dataset.Profile102(), Hours: hours, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := gen.Series
	if s.Len() != hours {
		t.Fatalf("series length %d", s.Len())
	}

	episodes, err := attack.Schedule(attack.DefaultSchedule(), hours, 0, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	injected, err := attack.InjectDDoS(s.Values, episodes, attack.DefaultTraffic(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(injected.Values) != hours || len(injected.Labels) != hours {
		t.Fatal("attack output lengths")
	}

	train, _, err := series.SplitValues(s.Values, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	var sc scale.MinMaxScaler
	scaledTrain, err := sc.FitTransform(train)
	if err != nil {
		t.Fatal(err)
	}
	aeCfg := autoencoder.Config{
		SeqLen: 12, EncoderUnits: 8, Bottleneck: 4, Dropout: 0.1,
		Epochs: 4, BatchSize: 32, LearningRate: 0.005,
		Patience: 10, ValFrac: 0.1, TrainStride: 4, Seed: 3,
	}
	filtCfg := anomaly.Config{ThresholdPercentile: 98, MaxGap: 2, MinRunLen: 2, Mitigation: 1}
	filter, det, err := TrainFilter(scaledTrain, aeCfg, filtCfg)
	if err != nil {
		t.Fatal(err)
	}

	thr, err := filter.Threshold()
	if err != nil {
		t.Fatal(err)
	}
	cut := int(0.9 * float64(len(scaledTrain)))
	tailScores, err := det.PointScores(scaledTrain[cut-aeCfg.SeqLen:])
	if err != nil {
		t.Fatal(err)
	}
	want, err := anomaly.Percentile(tailScores, filtCfg.ThresholdPercentile)
	if err != nil {
		t.Fatal(err)
	}
	if thr != want {
		t.Fatalf("threshold %v, want the held-out tail's percentile %v", thr, want)
	}

	scaledAttacked, err := sc.Transform(injected.Values)
	if err != nil {
		t.Fatal(err)
	}
	res, err := filter.Apply(scaledAttacked)
	if err != nil {
		t.Fatal(err)
	}
	conf, err := metrics.EvalDetection(injected.Labels, res.Flags)
	if err != nil {
		t.Fatal(err)
	}
	if d := metrics.Summarize(conf); d.Precision < 0.3 {
		t.Fatalf("detection precision %v suspiciously low", d.Precision)
	}

	spec := nn.ForecasterSpec(8, 4)
	c1, err := fed.NewClient("a", spec, scaledTrain, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := fed.NewClient("b", spec, scaledTrain, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	co, err := fed.NewCoordinator(spec, []fed.ClientHandle{c1, c2},
		fed.Config{Rounds: 1, EpochsPerRound: 2, BatchSize: 32, LearningRate: 0.001, Seed: 1, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	runRes, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(runRes.Global) == 0 {
		t.Fatal("no global weights")
	}
}
