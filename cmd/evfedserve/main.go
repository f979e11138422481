// Command evfedserve runs the always-on anomaly scoring service: a
// sharded detector fleet that ingests per-station charging observations,
// emits per-point verdicts (optionally with reconstruction-based
// mitigation), and hot-reloads freshly federated model weights without
// dropping an in-flight window.
//
// Usage:
//
//	evfedserve -model detector.bin [-threshold X]
//	    [-addr :9090] [-reload-addr :9091] [-shards N] [-depth N]
//	    [-mitigate] [-idle-ttl 0] [-persist FILE]
//	    [-canary] [-canary-fraction 0.25] [-canary-sample-every 4]
//	    [-canary-shadow 512] [-canary-promote 1024]
//	evfedserve -train-synthetic [-quick] ...
//
// The detector comes from evfeddetect -save-model (which persists the
// calibrated threshold alongside the weights), or -train-synthetic
// trains one on synthetic zone data at startup for self-contained demos.
//
// Each plane speaks one protocol. -addr is the binary scoring listener
// (the federation's length-prefixed wire framing: MsgScore/MsgScoreOK,
// plus the MsgReload and MsgCanaryPush model pushes from cmd/evfedcoord
// -serve-reload and -serve-canary); producers connect with
// serve.DialWire. The operator control plane on -reload-addr is HTTP:
// POST /reload (JSON weights or a raw detector file), GET /stats, GET
// /healthz — plus, with -canary, POST /stage, POST /promote, POST
// /rollback and GET /rollout.
//
// -canary turns model pushes into staged rollouts: candidates land as
// shadow scorers (MsgCanaryPush from cmd/evfedcoord -serve-canary, or
// POST /stage), graduate to a station cohort, and auto-promote only
// after the divergence budgets hold; a diverging candidate is rolled
// back and quarantined without ever serving the full fleet.
//
// -persist snapshots the serving detector (with its calibrated
// threshold, evfeddetect -save-model format) on graceful shutdown, and
// -snapshot-every additionally snapshots it periodically — atomically,
// write-to-temp + rename — so a crash loses at most one interval of hot
// reloads. At startup an existing -persist snapshot is resumed, taking
// precedence over -model: the restarted server rejoins the fleet with
// the last snapshotted weights and picks up the coordinator's
// reload/canary pushes on the next round. -idle-ttl evicts stations that
// have gone quiet, bounding memory across station churn.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/evfed/evfed/internal/autoencoder"
	"github.com/evfed/evfed/internal/dataset"
	"github.com/evfed/evfed/internal/scale"
	"github.com/evfed/evfed/internal/serve"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "evfedserve:", err)
		os.Exit(1)
	}
}

// started reports the bound listener addresses to its caller (the smoke
// test and the log line); stop, when non-nil, asks a running service to
// shut down gracefully (the smoke test uses it; interactive runs stop on
// SIGINT/SIGTERM).
type started struct {
	ScoreAddr  string
	ReloadAddr string
	Service    *serve.Service
}

func run(fs *flag.FlagSet, args []string, onStart func(started) (stop <-chan struct{})) error {
	var (
		model     = fs.String("model", "", "detector file from evfeddetect -save-model")
		threshold = fs.Float64("threshold", 0, "detection threshold override (default: the persisted calibration)")
		addr      = fs.String("addr", ":9090", "binary scoring listener address")
		reload    = fs.String("reload-addr", ":9091", "HTTP control-plane address (empty disables)")
		shards    = fs.Int("shards", 0, "scoring shards (0 = GOMAXPROCS)")
		depth     = fs.Int("depth", 1024, "per-shard bounded queue depth")
		mitigate  = fs.Bool("mitigate", false, "replace flagged values with their reconstruction")
		synth     = fs.Bool("train-synthetic", false, "train a detector on synthetic zone data at startup")
		quick     = fs.Bool("quick", false, "with -train-synthetic: smaller model, faster training")
		seed      = fs.Uint64("seed", 1, "seed for -train-synthetic")
		idleTTL   = fs.Duration("idle-ttl", 0, "evict stations idle longer than this (0 = never)")
		persist   = fs.String("persist", "", "snapshot the serving detector (calibrated format) here on graceful shutdown; an existing snapshot is resumed at startup, taking precedence over -model")
		snapEvery = fs.Duration("snapshot-every", 0, "also snapshot the serving detector to -persist at this interval (0 = shutdown only), so a crash loses at most one interval of hot reloads")

		canary       = fs.Bool("canary", false, "stage pushed models as canaries instead of reloading live")
		canaryFrac   = fs.Float64("canary-fraction", 0, "station cohort fraction served by the candidate in the canary phase (0 = default 0.25)")
		canaryEvery  = fs.Int("canary-sample-every", 0, "shadow-score every Nth non-cohort window (0 = default 4)")
		canaryShadow = fs.Int("canary-shadow", 0, "shadow samples before the candidate graduates to the cohort (0 = default 512)")
		canaryBudget = fs.Int("canary-promote", 0, "canary-phase samples before auto-promotion (0 = default 1024)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *snapEvery < 0 {
		return fmt.Errorf("-snapshot-every must be >= 0")
	}
	if *snapEvery > 0 && *persist == "" {
		return fmt.Errorf("-snapshot-every requires -persist FILE")
	}

	det, thr, err := resolveDetector(*persist, *model, *synth, *quick, *seed)
	if err != nil {
		return err
	}
	if *threshold > 0 {
		thr = *threshold
	}
	if thr <= 0 {
		return fmt.Errorf("no detection threshold: pass -threshold (the detector file carries none)")
	}

	svc, err := serve.New(serve.Config{
		Detector:   det,
		Threshold:  thr,
		Shards:     *shards,
		QueueDepth: *depth,
		Mitigate:   *mitigate,
		IdleTTL:    *idleTTL,
		Rollout: serve.RolloutConfig{
			Enabled:        *canary,
			CanaryFraction: *canaryFrac,
			SampleEvery:    *canaryEvery,
			ShadowSamples:  *canaryShadow,
			CanarySamples:  *canaryBudget,
		},
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	wire, err := serve.ListenWire(svc, *addr)
	if err != nil {
		return err
	}
	defer wire.Stop()
	st := started{ScoreAddr: wire.Addr(), Service: svc}

	var ctrl *http.Server
	if *reload != "" {
		ln, lerr := listen(*reload)
		if lerr != nil {
			return lerr
		}
		ctrl = controlServer(svc.ControlHandler())
		go ctrl.Serve(ln)
		defer ctrl.Close()
		st.ReloadAddr = ln.Addr().String()
	}

	fmt.Fprintf(os.Stderr, "%s\n", svc)
	fmt.Fprintf(os.Stderr, "scoring on %s", st.ScoreAddr)
	if st.ReloadAddr != "" {
		fmt.Fprintf(os.Stderr, ", control plane on http://%s", st.ReloadAddr)
	}
	fmt.Fprintf(os.Stderr, ", threshold %.6g\n", thr)

	// Periodic snapshotting: rejoin-after-restart only works if the
	// snapshot is fresh, so a crash between graceful shutdowns loses at
	// most one -snapshot-every interval of hot reloads.
	var snapDone chan struct{}
	if *snapEvery > 0 {
		snapDone = make(chan struct{})
		go func() {
			tick := time.NewTicker(*snapEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if err := svc.SnapshotToFile(*persist); err != nil {
						fmt.Fprintf(os.Stderr, "snapshot: %v\n", err)
					}
				case <-snapDone:
					return
				}
			}
		}()
	}

	var stop <-chan struct{}
	if onStart != nil {
		stop = onStart(st)
	}
	if stop == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		c := make(chan struct{})
		go func() { <-sig; close(c) }()
		stop = c
	}
	<-stop

	// Graceful shutdown: stop ingestion first, then drain every shard
	// queue so accepted observations still get verdicts, then persist the
	// serving model. A still-staged canary candidate is deliberately not
	// persisted — only the calibrated incumbent survives a restart.
	if snapDone != nil {
		close(snapDone)
	}
	wire.Stop()
	if ctrl != nil {
		ctrl.Close()
	}
	svc.Close()
	if *persist != "" {
		if err := svc.SnapshotToFile(*persist); err != nil {
			return fmt.Errorf("persist serving model: %w", err)
		}
		fmt.Fprintf(os.Stderr, "serving model persisted to %s\n", *persist)
	}

	s := svc.Stats()
	fmt.Fprintf(os.Stderr, "served %d points (%d flagged, %d stations, epoch %d)\n",
		s.Points, s.Flagged, s.Stations, s.Epoch)
	fmt.Fprintf(os.Stderr, "verdict latency p50 %.1fµs, p90 %.1fµs, p99 %.1fµs, p999 %.1fµs (%d wave chunks split off)\n",
		s.LatencyP50Micros, s.LatencyP90Micros, s.LatencyP99Micros, s.LatencyP999Micros,
		s.StealOffered)
	return nil
}

func listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// resolveDetector picks the serving model with restart semantics: an
// existing -persist snapshot wins over -model/-train-synthetic — it
// carries every hot reload the previous process absorbed, where the
// original -model file is frozen at deploy time. Atomic snapshot writes
// mean the file is either a complete snapshot or absent; a file that
// exists but does not parse is a real fault and fails startup rather
// than silently serving a stale model.
func resolveDetector(persist, model string, synth, quick bool, seed uint64) (*autoencoder.Detector, float64, error) {
	if persist != "" {
		if _, err := os.Stat(persist); err == nil {
			det, thr, err := serve.LoadSnapshotFile(persist)
			if err != nil {
				return nil, 0, fmt.Errorf("resume from snapshot: %w", err)
			}
			fmt.Fprintf(os.Stderr, "resuming from snapshot %s\n", persist)
			return det, thr, nil
		}
	}
	return loadDetector(model, synth, quick, seed)
}

// loadDetector resolves the serving model: a persisted file, or a quick
// synthetic-data training run for self-contained demos.
func loadDetector(path string, synth, quick bool, seed uint64) (*autoencoder.Detector, float64, error) {
	switch {
	case path != "" && synth:
		return nil, 0, fmt.Errorf("-model and -train-synthetic are mutually exclusive")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		return loadCalibrated(f)
	case synth:
		return trainSynthetic(quick, seed)
	default:
		return nil, 0, fmt.Errorf("pass -model FILE or -train-synthetic")
	}
}

func loadCalibrated(f *os.File) (*autoencoder.Detector, float64, error) {
	det, thr, err := autoencoder.LoadCalibrated(f)
	if err != nil {
		return nil, 0, err
	}
	return det, thr, nil
}

// trainSynthetic fits a detector on one synthetic zone's scaled demand
// and calibrates the paper's percentile threshold, then recalibrates it
// for last-point streaming scores (the serving criterion).
func trainSynthetic(quick bool, seed uint64) (*autoencoder.Detector, float64, error) {
	hours := 2000
	cfg := autoencoder.DefaultConfig()
	cfg.Seed = seed
	if quick {
		hours = 600
		cfg.SeqLen = 12
		cfg.EncoderUnits = 10
		cfg.Bottleneck = 5
		cfg.Epochs = 4
		cfg.TrainStride = 2
	}
	res, err := dataset.Generate(dataset.Config{Profile: dataset.Profile102(), Hours: hours, Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	var sc scale.MinMaxScaler
	values, err := sc.FitTransform(res.Series.Values)
	if err != nil {
		return nil, 0, err
	}
	fmt.Fprintf(os.Stderr, "training synthetic detector (%d units, %d hours)...\n", cfg.EncoderUnits, hours)
	det, _, err := autoencoder.Train(values, cfg)
	if err != nil {
		return nil, 0, err
	}
	// The serving criterion is the streaming last-point score, so the
	// threshold is calibrated on it (paper's 98th-percentile operating
	// point) rather than on window MSE.
	thr, err := serve.CalibrateThreshold(det, values, 0.98)
	if err != nil {
		return nil, 0, err
	}
	return det, thr, nil
}

// The control plane's HTTP timeouts: a client must finish its request
// header within controlReadHeaderTimeout, and a keep-alive connection
// idle for controlIdleTimeout is closed, so a stalled or abandoned
// client cannot hold a connection and its goroutine for ever.
const (
	controlReadHeaderTimeout = 5 * time.Second
	controlIdleTimeout       = 2 * time.Minute
)

// controlServer is the operator control plane's http.Server.
func controlServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: controlReadHeaderTimeout,
		IdleTimeout:       controlIdleTimeout,
	}
}
