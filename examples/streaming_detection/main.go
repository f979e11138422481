// Streaming detection: monitor a live charging feed point by point with
// the online detector — the deployment mode of a real station, which
// cannot wait for a batch. An offline-calibrated threshold drives
// per-point verdicts using only past data.
//
//	go run ./examples/streaming_detection
package main

import (
	"fmt"
	"log"

	"github.com/evfed/evfed/internal/anomaly"
	"github.com/evfed/evfed/internal/attack"
	"github.com/evfed/evfed/internal/autoencoder"
	"github.com/evfed/evfed/internal/dataset"
	"github.com/evfed/evfed/internal/eval"
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
	const historyHours = 2200

	// 1. Historical clean data trains and calibrates the detector offline.
	history, err := dataset.Generate(dataset.Config{Profile: dataset.Profile105(), Hours: historyHours, Seed: 17})
	if err != nil {
		return err
	}
	train, _, err := series.SplitValues(history.Series.Values, 0.8)
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
		Patience: 10, ValFrac: 0.1, TrainStride: 3, Seed: 17,
	}
	filtCfg := anomaly.Config{ThresholdPercentile: 98, MaxGap: 2, MinRunLen: 2, Mitigation: 1}
	filter, det, err := eval.TrainFilter(scaledTrain, detCfg, filtCfg)
	if err != nil {
		return err
	}
	thr, err := filter.Threshold()
	if err != nil {
		return err
	}
	fmt.Printf("offline calibration done (threshold %.6g)\n", thr)

	// 2. A "live" feed: fresh data with a DDoS burst in the middle.
	live, err := dataset.Generate(dataset.Config{Profile: dataset.Profile105(), Hours: 400, Seed: 18})
	if err != nil {
		return err
	}
	episodes := []attack.Episode{{Start: 200, Length: 12, Severity: 0.3}}
	injected, err := attack.InjectDDoS(live.Series.Values, episodes, attack.DefaultTraffic(), rng.New(18))
	if err != nil {
		return err
	}
	labels := injected.Labels
	scaledLive, err := sc.Transform(injected.Values)
	if err != nil {
		return err
	}

	// 3. Stream it through the online detector.
	stream, err := anomaly.NewStream(det.NewStreamScorer(), thr)
	if err != nil {
		return err
	}
	var hits, misses, falseAlarms int
	for i, v := range scaledLive {
		d, err := stream.Push(v)
		if err != nil {
			return err
		}
		switch {
		case d.Flagged && labels[i]:
			hits++
		case d.Flagged && !labels[i]:
			falseAlarms++
		case !d.Flagged && labels[i] && d.Ready:
			misses++
		}
		if d.Flagged && labels[i] && hits == 1 {
			fmt.Printf("first alarm at stream index %d (attack began at 200)\n", d.Index)
		}
	}
	fmt.Printf("attack hours caught: %d, missed: %d, false alarms: %d over %d live points\n",
		hits, misses, falseAlarms, len(scaledLive))
	return nil
}
