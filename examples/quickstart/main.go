// Quickstart: generate one zone's charging data, train a small federated
// forecaster across three stations, and print test-set accuracy.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/evfed/evfed/internal/dataset"
	"github.com/evfed/evfed/internal/fed"
	"github.com/evfed/evfed/internal/metrics"
	"github.com/evfed/evfed/internal/nn"
	"github.com/evfed/evfed/internal/scale"
	"github.com/evfed/evfed/internal/series"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		hours       = 1000
		seqLen      = 24
		lstmUnits   = 16
		denseHidden = 6
	)

	// 1. Synthesize three stations' hourly charging volumes.
	spec := nn.ForecasterSpec(lstmUnits, denseHidden)
	profiles := []dataset.ZoneProfile{dataset.Profile102(), dataset.Profile105(), dataset.Profile108()}
	var handles []fed.ClientHandle
	type evalSet struct {
		scaler  scale.MinMaxScaler
		windows []series.Window
		truth   []float64
	}
	evals := make([]*evalSet, 0, len(profiles))

	for i, prof := range profiles {
		gen, err := dataset.Generate(dataset.Config{Profile: prof, Hours: hours, Seed: 7})
		if err != nil {
			return err
		}
		s := gen.Series
		// 2. Per-station MinMax scaling fitted on the 80% training split.
		train, test, err := series.SplitValues(s.Values, 0.8)
		if err != nil {
			return err
		}
		var es evalSet
		scaledTrain, err := es.scaler.FitTransform(train)
		if err != nil {
			return err
		}
		scaledTest, err := es.scaler.Transform(test)
		if err != nil {
			return err
		}
		ctx := append(append([]float64{}, scaledTrain[len(scaledTrain)-seqLen:]...), scaledTest...)
		es.windows, err = series.MakeWindows(ctx, seqLen)
		if err != nil {
			return err
		}
		es.truth = test

		// 3. A federated client per station: raw data stays here.
		c, err := fed.NewClient(prof.Zone, spec, scaledTrain, seqLen, uint64(i+1))
		if err != nil {
			return err
		}
		handles = append(handles, c)
		evals = append(evals, &es)
	}

	// 4. Federated training: only model weights cross station boundaries.
	cfg := fed.Config{
		Rounds:         3,
		EpochsPerRound: 4,
		BatchSize:      32,
		LearningRate:   0.001,
		Seed:           7,
		Parallel:       true,
	}
	co, err := fed.NewCoordinator(spec, handles, cfg)
	if err != nil {
		return err
	}
	res, err := co.Run()
	if err != nil {
		return err
	}
	fmt.Printf("federated training: %d rounds in %.1fs\n", len(res.Rounds), res.WallSeconds)

	// 5. Evaluate each station's locally specialized model on its own
	//    held-out data.
	for i, h := range handles {
		client, ok := h.(*fed.Client)
		if !ok {
			return fmt.Errorf("unexpected handle type %T", h)
		}
		es := evals[i]
		preds := make([]float64, len(es.windows))
		for k, w := range es.windows {
			out := client.Model().Predict(w.Input)
			p, err := es.scaler.InverseValue(out[0][0])
			if err != nil {
				return err
			}
			preds[k] = p
		}
		reg, err := metrics.EvalRegression(es.truth, preds)
		if err != nil {
			return err
		}
		fmt.Printf("station %s: MAE %.3f kWh  RMSE %.3f kWh  R² %.4f\n",
			client.ID(), reg.MAE, reg.RMSE, reg.R2)
	}
	return nil
}
