// Attack mitigation: inject DDoS-derived anomalies into a station's
// charging data, detect them with the LSTM autoencoder, mitigate by
// interpolation, and report detection quality and data recovery.
//
//	go run ./examples/attack_mitigation
package main

import (
	"fmt"
	"log"
	"math"

	"github.com/evfed/evfed/internal/anomaly"
	"github.com/evfed/evfed/internal/attack"
	"github.com/evfed/evfed/internal/autoencoder"
	"github.com/evfed/evfed/internal/dataset"
	"github.com/evfed/evfed/internal/eval"
	"github.com/evfed/evfed/internal/metrics"
	"github.com/evfed/evfed/internal/rng"
	"github.com/evfed/evfed/internal/scale"
	"github.com/evfed/evfed/internal/series"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const hours = 2200

	// 1. Clean data for zone 102, then a DDoS campaign on top of it.
	gen, err := dataset.Generate(dataset.Config{Profile: dataset.Profile102(), Hours: hours, Seed: 11})
	if err != nil {
		return err
	}
	s := gen.Series
	episodes, err := attack.Schedule(attack.DefaultSchedule(), hours, 0, rng.New(11))
	if err != nil {
		return err
	}
	injected, err := attack.InjectDDoS(s.Values, episodes, attack.DefaultTraffic(), rng.New(11))
	if err != nil {
		return err
	}
	attacked, labels := injected.Values, injected.Labels
	nAttacked := 0
	for _, l := range labels {
		if l {
			nAttacked++
		}
	}
	fmt.Printf("injected %d attack episodes covering %d/%d hours (%.1f%%)\n",
		len(episodes), nAttacked, hours, 100*float64(nAttacked)/hours)

	// 2. Train the detector on the clean training split (scaled to [0,1]).
	train, _, err := series.SplitValues(s.Values, 0.8)
	if err != nil {
		return err
	}
	var sc scale.MinMaxScaler
	scaledTrain, err := sc.FitTransform(train)
	if err != nil {
		return err
	}
	detCfg := autoencoder.Config{
		SeqLen: 24, EncoderUnits: 12, Bottleneck: 6, Dropout: 0.2,
		Epochs: 8, BatchSize: 32, LearningRate: 0.001,
		Patience: 10, ValFrac: 0.1, TrainStride: 3, Seed: 11,
	}
	filtCfg := anomaly.Config{
		ThresholdPercentile: 98, MaxGap: 2, MinRunLen: 2,
		Mitigation: 1, // linear interpolation
	}
	filter, _, err := eval.TrainFilter(scaledTrain, detCfg, filtCfg)
	if err != nil {
		return err
	}
	thr, err := filter.Threshold()
	if err != nil {
		return err
	}
	fmt.Printf("calibrated 98th-percentile threshold: %.6g\n", thr)

	// 3. Detect + mitigate on the attacked stream.
	scaledAttacked, err := sc.Transform(attacked)
	if err != nil {
		return err
	}
	res, err := filter.Apply(scaledAttacked)
	if err != nil {
		return err
	}
	conf, err := metrics.EvalDetection(labels, res.Flags)
	if err != nil {
		return err
	}
	det := metrics.Summarize(conf)
	fmt.Printf("detection: precision %.3f  recall %.3f  F1 %.3f  FPR %.2f%%\n",
		det.Precision, det.Recall, det.F1, 100*det.FPR)
	fmt.Printf("mitigated %d anomalous segments\n", len(res.Runs))

	// 4. How much closer is the filtered series to the clean truth?
	filtered, err := sc.Inverse(res.Filtered)
	if err != nil {
		return err
	}
	var attackedDist, filteredDist float64
	for i := range s.Values {
		attackedDist += math.Abs(attacked[i] - s.Values[i])
		filteredDist += math.Abs(filtered[i] - s.Values[i])
	}
	fmt.Printf("mean |deviation from clean|: attacked %.3f kWh, filtered %.3f kWh (%.1f%% recovered)\n",
		attackedDist/hours, filteredDist/hours, 100*(1-filteredDist/attackedDist))
	return nil
}
