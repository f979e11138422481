// Command bench is the repository's benchmark of record: five workloads,
// nine end-to-end metrics, and per-layer figures taken from outside the
// program — spans around this package's own calls into each layer's
// public functions. BENCHMARK.json at the repository root names the
// workloads, the metrics and their regression bounds; README.md in this
// directory explains what each is for.
//
//	go run ./bench -workload serve-uniform -seed 7 -seconds 20
//	go run ./bench -workload fed-tree -seed 7 -seconds 20 -trace 1
//	go run ./bench -repeat-check
//
// One invocation runs one workload in its own process (so that peak
// memory is the workload's own), prints every metric by name with its
// unit, checks the outputs against references, and ends with one JSON
// line. It exits non-zero when a check fails or an operation is lost.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A run builds its environment from scratch at least minSetups times and
// goes on, up to maxSetups, while the set-ups together have taken less
// than setupBudget; setup_s is their median, so one slow page-cache miss
// does not decide it, and a set-up of a few milliseconds (fed-tree's) is
// sampled often enough to repeat.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
)

// outcome is what one measured run of a workload hands back.
type outcome struct {
	attempted, failed int64
	wall              float64 // seconds the measured phase took
	speed             float64 // work per second, for the traced-vs-untraced comparison
	e2e               map[string]float64
	layer             map[string]float64
	notes             []string
	problems          []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records n failed operations and why.
func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	o.problem(format, args...)
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workload is one of the five named input sets. setup builds everything
// the timed run needs (trained detector, dialled connections, warm
// station windows; traced says whether the run it is for records spans,
// and so needs the timing connections) and teardown releases it; run
// measures; probes times the layers underneath at the workload's own
// shapes.
type workload interface {
	setup(traced bool) error
	teardown()
	run(tr *tracer, seconds float64, wd *watchdog) (*outcome, error)
	// limit is how long a run of the given length may take before the
	// watchdog declares it stuck.
	limit(seconds float64) time.Duration
	probes(layer map[string]float64)
	// steadyMemory says whether the workload's peak resident set repeats
	// well enough to carry a regression bound; where it does not it is
	// reported beside the per-layer metrics instead.
	steadyMemory() bool
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	stall    bool
}

func newWorkload(o options, host hostInfo) (workload, error) {
	switch o.workload {
	case wlPipeline:
		return &pipelineWorkload{seed: o.seed, host: host}, nil
	case wlServeUniform:
		return newServeWorkload(o, closedStations, 0, false), nil
	case wlServeSkew:
		return newServeWorkload(o, closedStations, 0.75, false), nil
	case wlServePaced:
		return newServeWorkload(o, pacedStations, 0, true), nil
	case wlFedTree:
		return newFedTreeWorkload(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
}

func main() {
	var o options
	var traceFlag int
	var repeatCheck bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	flag.Uint64Var(&o.seed, "seed", 42, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase of the time-boxed workloads")
	flag.IntVar(&traceFlag, "trace", 0, "1 = repeat the workload with spans recorded and report the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "file the traced run's spans are written to (default .bench_build/trace/<workload>.json)")
	flag.BoolVar(&repeatCheck, "repeat-check", false, "run every workload twice and fail if an end-to-end metric moves by more than its bound")
	flag.BoolVar(&o.stall, "stall-reply", false, "serve workloads: block one station's reply callback (demonstrates the watchdog)")
	flag.Parse()
	o.trace = traceFlag != 0

	if repeatCheck {
		os.Exit(runRepeatCheck(o.seed))
	}
	if o.seconds < 1 || o.seconds > 60 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be within 1..60")
		os.Exit(2)
	}
	os.Exit(runOne(o))
}

// runOne runs one workload and prints its result; the return value is the
// process's exit code.
func runOne(o options) int {
	host := fingerprint(o.seed)
	w, err := newWorkload(o, host)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	hostJSON, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostJSON)
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)

	// No run may outlive the driver's patience: whatever else happens the
	// process reports and exits before this.
	hard := time.AfterFunc(170*time.Second, func() {
		fmt.Println("bench: hard deadline reached; the workload is stuck")
		printResult(o, nil, false)
		os.Exit(1)
	})
	defer hard.Stop()

	var setups []float64
	build := func(traced bool) error {
		t0 := time.Now()
		err := w.setup(traced)
		setups = append(setups, time.Since(t0).Seconds())
		return err
	}
	// The traced invocation needs two environments (one per run) and
	// reports no setup_s; the plain one builds several and measures on the
	// last.
	for spent := 0.0; ; w.teardown() {
		if err := build(false); err != nil {
			fmt.Fprintln(os.Stderr, "bench: setup:", err)
			return 1
		}
		n := len(setups)
		spent += setups[n-1]
		if o.trace || n >= maxSetups || (n >= minSetups && spent >= setupBudget.Seconds()) {
			break
		}
	}

	// A traced invocation takes as long as a plain one: a third of the box
	// goes to the plain run, which is only there for the overhead
	// comparison, and the rest to the traced run whose figures are reported.
	plainSeconds, tracedSeconds := o.seconds, 0.0
	if o.trace {
		plainSeconds, tracedSeconds = o.seconds/3, o.seconds*2/3
	}
	settleMemory()
	out, err := w.run(nil, plainSeconds, newWatchdog(w.limit(plainSeconds)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: run:", err)
		return 1
	}

	rss := peakRSSMB() // of the timed phase: before the probes allocate
	if o.trace && out.failed == 0 {
		plainSpeed := out.speed
		w.teardown()
		if err := build(true); err != nil {
			fmt.Fprintln(os.Stderr, "bench: setup:", err)
			return 1
		}
		settleMemory()
		tr := newTracer(fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
		out, err = w.run(tr, tracedSeconds, newWatchdog(w.limit(tracedSeconds)))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: traced run:", err)
			return 1
		}
		rss = peakRSSMB()
		spans := tr.finish()
		if plainSpeed > 0 && out.speed > 0 {
			out.layer["loadgen.trace_overhead_pct"] = 100 * (1 - out.speed/plainSpeed)
		}
		w.probes(out.layer)
		path := o.traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace", o.workload+".json")
		}
		if err := writeTrace(path, traceFile{Workload: o.workload, RunID: tr.runID, Host: host, Spans: spans}); err != nil {
			out.note("trace not written: %v", err)
		} else {
			out.note("trace: %d spans written to %s", len(spans), path)
		}
	}
	w.teardown()

	if out.attempted < 1 {
		out.attempted = 1
		out.fail(1, "no operation was attempted")
	}
	out.e2e["setup_s"] = median(setups)
	if w.steadyMemory() {
		out.e2e["peak_rss_mb"] = rss
	} else {
		out.layer["serve.peak_rss_mb"] = rss
	}
	out.e2e["ok_share"] = 1 - float64(out.failed)/float64(out.attempted)
	fillUnexercised(out)

	for _, n := range out.notes {
		fmt.Println("note:", n)
	}
	for _, p := range out.problems {
		fmt.Println("FAILED:", p)
	}
	correct := out.failed == 0 && len(out.problems) == 0
	fmt.Printf("failed_share %.6g (%d of %d operations)\n",
		float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	printResult(o, out, correct)
	if !correct {
		return 1
	}
	return 0
}

// fillUnexercised gives every end-to-end metric the workload does not
// define a value. The driver's result line must carry all nine on every
// workload, non-zero, and a time may not read the same on every run; so a
// time the workload has no use for reads the measured phase's own wall
// clock in that unit, a rate reads its reciprocal, and a count reads 1.
// These cells move only if the run itself stalls; README.md marks them.
func fillUnexercised(out *outcome) {
	for _, m := range endToEnd {
		if _, ok := out.e2e[m.name]; ok {
			continue
		}
		switch m.unit {
		case "s":
			out.e2e[m.name] = out.wall
		case "ms":
			out.e2e[m.name] = out.wall * 1e3
		case "us":
			out.e2e[m.name] = out.wall * 1e6
		case "1/s":
			out.e2e[m.name] = 1 / out.wall
		default:
			out.e2e[m.name] = 1
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult prints every metric by name and then the result line the
// driver reads: the end-to-end metrics from a plain run, the per-layer
// metrics from a traced one. A nil outcome (the run never came back)
// reports one failed operation.
func printResult(o options, out *outcome, correct bool) {
	defs, values := endToEnd, map[string]float64{}
	if o.trace {
		defs = perLayer
	}
	attempted, failed := int64(1), int64(1)
	if out != nil {
		attempted, failed = out.attempted, out.failed
		values = out.e2e
		if o.trace {
			values = out.layer
			// A traced run still shows the end-to-end figures it saw.
			names := make([]string, 0, len(out.e2e))
			for n := range out.e2e {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Printf("traced-run %s %.6g\n", n, out.e2e[n])
			}
		}
	}
	res := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v := values[m.name]
		fmt.Printf("metric %-34s %14.6g %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// watchdog bounds a measured phase: when it expires the workload stops
// waiting, counts what is still outstanding as failed, and returns.
type watchdog struct {
	limit   time.Duration
	expired chan struct{}
}

func newWatchdog(limit time.Duration) *watchdog {
	wd := &watchdog{limit: limit, expired: make(chan struct{})}
	time.AfterFunc(limit, func() { close(wd.expired) })
	return wd
}

func (wd *watchdog) hasExpired() bool {
	select {
	case <-wd.expired:
		return true
	default:
		return false
	}
}

// boxedLimit is the watchdog limit of a time-boxed phase: its length
// again, at least fifteen seconds, to drain what is in flight.
func boxedLimit(seconds float64) time.Duration {
	grace := seconds
	if grace < 15 {
		grace = 15
	}
	return time.Duration((seconds + grace) * float64(time.Second))
}
