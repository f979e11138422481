// Command evfeddetect runs the anomaly detection + mitigation filter on a
// charging-volume CSV: the LSTM autoencoder is trained on the leading
// (assumed-normal) fraction of the series, the 98th-percentile threshold
// is calibrated on that split's held-out tail (eval.TrainFilter, the same
// rule the experiment harness uses), and detection + interpolation
// mitigation is applied to the full series.
//
// Usage:
//
//	evfeddetect -in data.csv [-train-frac 0.8] [-out filtered.csv] [-flags flags.csv]
//	    [-save-model detector.bin] [-quick]
//
// -save-model persists the trained detector together with its calibrated
// threshold; cmd/evfedserve loads that file to serve the same model
// online.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"github.com/evfed/evfed/internal/anomaly"
	"github.com/evfed/evfed/internal/autoencoder"
	"github.com/evfed/evfed/internal/dataset"
	"github.com/evfed/evfed/internal/eval"
	"github.com/evfed/evfed/internal/scale"
	"github.com/evfed/evfed/internal/series"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "evfeddetect:", err)
		os.Exit(1)
	}
}

func run(fs *flag.FlagSet, args []string) error {
	var (
		in        = fs.String("in", "", "input CSV (required)")
		trainFrac = fs.Float64("train-frac", 0.8, "leading fraction used to train + calibrate")
		out       = fs.String("out", "", "write the mitigated series CSV here")
		flagsOut  = fs.String("flags", "", "write per-point anomaly flags CSV here")
		quick     = fs.Bool("quick", false, "use a small autoencoder (fast, less sensitive)")
		saveModel = fs.String("save-model", "", "persist the trained detector + threshold here (for evfedserve)")
		seed      = fs.Uint64("seed", 1, "training seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	s, err := dataset.ReadCSV(f)
	f.Close()
	if err != nil {
		return err
	}

	train, _, err := series.SplitValues(s.Values, *trainFrac)
	if err != nil {
		return err
	}
	var sc scale.MinMaxScaler
	scaledTrain, err := sc.FitTransform(train)
	if err != nil {
		return err
	}
	aeCfg := detectorConfig(*quick, *seed)
	fmt.Fprintf(os.Stderr, "training autoencoder (%d units, %d epochs max) on %d points...\n",
		aeCfg.EncoderUnits, aeCfg.Epochs, len(scaledTrain))
	start := time.Now()
	filter, det, err := eval.TrainFilter(scaledTrain, aeCfg, anomaly.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trained and calibrated in %.1fs\n", time.Since(start).Seconds())

	scaledAll, err := sc.Transform(s.Values)
	if err != nil {
		return err
	}
	res, err := filter.Apply(scaledAll)
	if err != nil {
		return err
	}
	filtered, err := sc.Inverse(res.Filtered)
	if err != nil {
		return err
	}

	flagged := 0
	for _, fl := range res.Flags {
		if fl {
			flagged++
		}
	}
	fmt.Printf("points: %d\n", s.Len())
	fmt.Printf("threshold (98th pct reconstruction MSE): %.6g\n", res.Threshold)
	fmt.Printf("flagged anomalous: %d (%.2f%%)\n", flagged, 100*float64(flagged)/float64(s.Len()))
	fmt.Printf("mitigated segments: %d\n", len(res.Runs))

	if *saveModel != "" {
		mf, err := os.Create(*saveModel)
		if err != nil {
			return err
		}
		if err := det.SaveCalibrated(mf, res.Threshold); err != nil {
			mf.Close()
			return err
		}
		if err := mf.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "detector + threshold saved to %s\n", *saveModel)
	}
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer of.Close()
		if err := dataset.WriteCSV(of, series.New(s.Start, s.Step, filtered)); err != nil {
			return err
		}
	}
	if *flagsOut != "" {
		ff, err := os.Create(*flagsOut)
		if err != nil {
			return err
		}
		defer ff.Close()
		if _, err := fmt.Fprintln(ff, "timestamp,flagged,score"); err != nil {
			return err
		}
		for i, fl := range res.Flags {
			line := s.TimeAt(i).Format(time.RFC3339) + "," + strconv.FormatBool(fl) + "," +
				strconv.FormatFloat(res.Scores[i], 'g', 6, 64)
			if _, err := fmt.Fprintln(ff, line); err != nil {
				return err
			}
		}
	}
	return nil
}

// detectorConfig is the autoencoder configuration for a run: the paper's
// full-size detector, or with quick a small one that trains in seconds.
func detectorConfig(quick bool, seed uint64) autoencoder.Config {
	cfg := autoencoder.DefaultConfig()
	cfg.Seed = seed
	if quick {
		cfg.EncoderUnits = 12
		cfg.Bottleneck = 6
		cfg.Epochs = 6
		cfg.TrainStride = 3
	}
	return cfg
}
