package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/evfed/evfed/internal/anomaly"
	"github.com/evfed/evfed/internal/autoencoder"
	"github.com/evfed/evfed/internal/dataset"
	"github.com/evfed/evfed/internal/eval"
	"github.com/evfed/evfed/internal/scale"
	"github.com/evfed/evfed/internal/series"
)

// TestQuickSavedThresholdMatchesTrainFilter runs the command with -quick
// and checks that the threshold it persists is the one eval.TrainFilter
// calibrates on the same training split: the CLI and the experiment
// harness share one calibration rule.
func TestQuickSavedThresholdMatchesTrainFilter(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "data.csv")
	model := filepath.Join(dir, "detector.bin")

	gen, err := dataset.Generate(dataset.Config{Profile: dataset.Profile102(), Hours: 600, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, gen.Series); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	fs := flag.NewFlagSet("evfeddetect", flag.ContinueOnError)
	if err := run(fs, []string{"-in", in, "-quick", "-seed", "3", "-save-model", model}); err != nil {
		t.Fatal(err)
	}
	mf, err := os.Open(model)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	_, saved, err := autoencoder.LoadCalibrated(mf)
	if err != nil {
		t.Fatal(err)
	}

	// The reference reads the same CSV, so both sides see its rounding.
	rf, err := os.Open(in)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dataset.ReadCSV(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
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
	filter, _, err := eval.TrainFilter(scaledTrain, detectorConfig(true, 3), anomaly.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := filter.Threshold()
	if err != nil {
		t.Fatal(err)
	}
	if saved != want {
		t.Fatalf("-save-model threshold %v, want eval.TrainFilter's %v", saved, want)
	}
}
