package main

import (
	"math"
	"regexp"
	"sort"
	"testing"
	"time"

	"github.com/evfed/evfed/internal/anomaly"
	"github.com/evfed/evfed/internal/autoencoder"
)

func TestHighestSupportedQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {100000, 0.9999}, {1 << 30, 0.9999},
	} {
		if got := highestSupportedQuantile(c.n); got != c.want {
			t.Errorf("n=%d: got p%g, want p%g (ten samples must lie beyond)", c.n, got*100, c.want*100)
		}
	}
}

func TestPercentileSortedNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.1: 1, 0.5: 5, 0.9: 9, 0.99: 10, 1: 10} {
		if got := percentileSorted(s, q); got != want {
			t.Errorf("q=%g: got %g, want %g", q, got, want)
		}
	}
	if got := percentileSorted(nil, 0.5); got != 0 {
		t.Errorf("empty sample: got %g", got)
	}
}

// Disturbed stretches — here half of the ten slices, in which 5 % of the
// verdicts are a thousand times slower — and a boosted one, a quarter
// faster, move the whole-run p99 and the median slice, but not the
// typical slice.
func TestTypicalQuantileIgnoresDisturbedSlices(t *testing.T) {
	const n, slices = 10000, 10
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = 100 + float64(i%7)
	}
	for k, s := range []int{1, 3, 4, 5, 8} {
		for i := s * n / slices; i < s*n/slices+n/slices/20; i++ {
			samples[i] = 1e5 * float64(k+1)
		}
	}
	for i := 9 * n / slices; i < n; i++ {
		samples[i] *= 0.75
	}
	if got := typicalQuantile(samples, slices, 0.99); got != 106 {
		t.Errorf("typical p99 = %g, want the undisturbed 106", got)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if whole := percentileSorted(sorted, 0.99); whole < 1e5 {
		t.Fatalf("test is vacuous: whole-run p99 = %g", whole)
	}
	per := sliceQuantiles(samples, slices, 0.99)
	if len(per) != slices || per[1] < 1e5 || per[0] != 106 || per[9] > 80 {
		t.Errorf("per-slice p99s %v: slice 1 is disturbed, slice 9 boosted, slice 0 neither", per)
	}
	if got := median(per); got < 1e4 {
		t.Fatalf("test is vacuous: the median slice reads %g", got)
	}
	if got := typicalQuantile([]float64{3, 1, 2}, slices, 0.5); got != 1 {
		t.Errorf("fewer samples than slices: got %g, want 1", got)
	}
}

func TestTypical(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{9, 4}, 4}, // no cluster to find: the lower
		{[]float64{1.60, 1.83, 1.61, 1.66}, 1.605},                      // the two that agree
		{[]float64{50, 39, 51, 49, 39, 50, 95, 50, 48, 39, 50, 57}, 50}, // boosted, typical and stalled samples
	} {
		if got := typical(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("typical(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildCoverOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Name: "a", Parent: 1, Start: 10, End: 30},
		{ID: 3, Name: "b", Parent: 1, Start: 20, End: 50},  // overlaps a: parallel calls
		{ID: 4, Name: "c", Parent: 1, Start: 90, End: 120}, // sticks out of the parent
		{ID: 5, Name: "leaf", Parent: 3, Start: 25, End: 35},
	}
	selfTimes(spans)
	want := map[int]int64{1: 100 - (40 + 10), 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d (%s): self %d, want %d", s.ID, s.Name, s.Self, want[s.ID])
		}
	}
}

func TestTracerNilIsFree(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0)
	tr.end(id)
	tr.add("y", id, time.Now(), time.Now())
	if id != 0 || tr.finish() != nil {
		t.Fatal("a nil tracer must record nothing")
	}
}

// The open loop times every point from when it was due: a send that
// stalls makes the points queued behind it late by what is left of the
// stall, and the generator's own lag shows the same.
func TestPaceTimesFromDueUnderStall(t *testing.T) {
	const (
		points   = 80
		interval = 1e6 // 1 ms
		stallAt  = 10
		stall    = 30 * time.Millisecond
	)
	lag := make([]int64, points)
	lat := make([]int64, points)
	start := time.Now()
	sent := pace(start, interval, lag, newWatchdog(10*time.Second), func(i int) {
		if i == stallAt {
			time.Sleep(stall)
		}
		lat[i] = sinceDue(start, i, interval) // a verdict delivered at once
	})
	if sent != points {
		t.Fatalf("sent %d of %d points", sent, points)
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	// Point 20 fell due 10 ms into a 30 ms stall: it waited the other 20.
	if ms(lat[20]) < 15 || ms(lag[20]) < 15 {
		t.Errorf("point 20: latency %.1f ms, lag %.1f ms; want about 20 (timed from due, not from send)", ms(lat[20]), ms(lag[20]))
	}
	if ms(lat[stallAt+1]) < 25 {
		t.Errorf("point %d: latency %.1f ms, want about 29", stallAt+1, ms(lat[stallAt+1]))
	}
	// Before the stall and after the backlog is sent, points go out on time.
	if ms(lag[5]) > 15 || ms(lag[points-1]) > 15 {
		t.Errorf("on-schedule points ran late: lag %.1f ms and %.1f ms", ms(lag[5]), ms(lag[points-1]))
	}
}

func testStations(n int) []*stationState {
	pool := make([]float64, 4*chunkLen)
	set := make([]*stationState, n)
	for i := range set {
		set[i] = &stationState{pool: pool}
	}
	return set
}

// A consumer that accepts points and never answers must not hang the
// producer: at the watchdog's deadline produce returns and what is still
// in the window is counted as lost.
func TestWatchdogTurnsStuckConsumerIntoFailures(t *testing.T) {
	win := newWindow(4 * chunkLen)
	var tl tally
	wd := newWatchdog(100 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		produce(testStations(3), win, time.Now().Add(time.Minute), wd, &tl, false,
			func(_ *stationState, chunk []float64) (int, error) { return len(chunk), nil })
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("produce is still waiting for verdicts five seconds after its watchdog expired")
	}
	if lost := win.inflight.Load(); lost != 4*chunkLen || tl.accepted != lost {
		t.Errorf("lost %d, accepted %d; want the whole window of %d outstanding", lost, tl.accepted, 4*chunkLen)
	}
	if win.drained(wd) {
		t.Error("drained reported success with verdicts outstanding")
	}
}

// With a consumer that answers, produce stops at its deadline and leaves
// nothing in flight.
func TestProduceDrainsAtDeadline(t *testing.T) {
	win := newWindow(2 * chunkLen)
	var tl tally
	produce(testStations(2), win, time.Now().Add(30*time.Millisecond), newWatchdog(10*time.Second), &tl, true,
		func(_ *stationState, chunk []float64) (int, error) {
			go win.release(int64(len(chunk)))
			return len(chunk), nil
		})
	if tl.accepted == 0 || tl.accepted%chunkLen != 0 || win.inflight.Load() != 0 {
		t.Errorf("accepted %d, still in flight %d", tl.accepted, win.inflight.Load())
	}
}

// The replay reference must agree with a stream it produced itself, and
// must notice a moved score, a flipped flag and a skipped index.
func TestReplayMismatches(t *testing.T) {
	values := make([]float64, 160)
	for i := range values {
		values[i] = 0.5 + 0.3*math.Sin(float64(i)/4)
	}
	cfg := autoencoder.DefaultConfig()
	cfg.SeqLen, cfg.EncoderUnits, cfg.Bottleneck = 8, 4, 2
	cfg.Epochs, cfg.TrainStride, cfg.Workers, cfg.Seed = 1, 4, 1, 3
	det, _, err := autoencoder.Train(values, cfg)
	if err != nil {
		t.Fatal(err)
	}
	values[100] = 9 // a spike, so that a flagged point and its mitigation are replayed
	scorer := det.NewStreamScorer()
	// stream pushes values through a fresh ring with the service's
	// mitigation rule and returns the decisions and the largest score
	// outside the spike.
	stream := func(thr float64) ([]anomaly.StreamDecision, float64) {
		ring, err := anomaly.NewRing(cfg.SeqLen)
		if err != nil {
			t.Fatal(err)
		}
		var got []anomaly.StreamDecision
		worst := 0.0
		for i, v := range values {
			idx, win, ready := ring.Push(v)
			d := anomaly.StreamDecision{Index: idx, Ready: ready}
			if ready {
				score, recon, err := scorer.ScoreLastRecon(win)
				if err != nil {
					t.Fatal(err)
				}
				d.Score, d.Flagged = score, score > thr
				if d.Flagged {
					ring.AmendLast(recon)
				}
				if i != 100 && score > worst {
					worst = score
				}
			}
			got = append(got, d)
		}
		return got, worst
	}
	_, worst := stream(math.Inf(1)) // nothing flagged: finds a threshold above the normal scores
	thr := worst * 1.5
	got, _ := stream(thr)
	if !got[100].Flagged {
		t.Fatal("test is vacuous: the spike was not flagged")
	}
	if n, detail := replayMismatches(det, thr, values, 0, got); n != 0 {
		t.Fatalf("replay of its own stream: %d mismatches (%s)", n, detail)
	}
	for name, mutate := range map[string]func([]anomaly.StreamDecision){
		"score": func(d []anomaly.StreamDecision) { d[50].Score *= 1.01 },
		"flag":  func(d []anomaly.StreamDecision) { d[60].Flagged = true },
		"index": func(d []anomaly.StreamDecision) { d[70].Index++ },
	} {
		bad := append([]anomaly.StreamDecision(nil), got...)
		mutate(bad)
		if n, _ := replayMismatches(det, thr, values, 0, bad); n == 0 {
			t.Errorf("a changed %s went unnoticed", name)
		}
	}
}

func TestWorseShare(t *testing.T) {
	if got := worseShare(100, 110, false); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("latency 100→110: worse by %g, want 0.1", got)
	}
	if got := worseShare(100, 90, true); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("throughput 100→90: worse by %g, want 0.1", got)
	}
	if got := worseShare(100, 120, true); got >= 0 {
		t.Errorf("throughput 100→120 is an improvement, got %g", got)
	}
}

// Every end-to-end metric gets a non-zero value on every workload, also
// the ones a workload does not exercise.
func TestFillUnexercised(t *testing.T) {
	out := newOutcome()
	out.wall = 10.25
	out.e2e["points_per_s"] = 123
	fillUnexercised(out)
	out.e2e["setup_s"], out.e2e["peak_rss_mb"], out.e2e["ok_share"] = 1, 1, 1
	for _, m := range endToEnd {
		if v, ok := out.e2e[m.name]; !ok || v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("%s = %v (present %v)", m.name, v, ok)
		}
	}
	if out.e2e["points_per_s"] != 123 || out.e2e["verdict_p50_us"] != 10.25e6 {
		t.Errorf("points_per_s %g (must be kept), verdict_p50_us %g (must read the wall in µs)",
			out.e2e["points_per_s"], out.e2e["verdict_p50_us"])
	}
}

// BENCHMARK.json and this package must name the same workloads and
// metrics, with the same units and directions, in names the contract
// accepts.
func TestBenchmarkJSONMatches(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", len(bf.Workloads), len(workloadNames))
	}
	for i, wl := range bf.Workloads {
		if wl.Name != workloadNames[i] || !nameRE.MatchString(wl.Name) {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the package", i, wl.Name, workloadNames[i])
		}
		if wl.Why == "" || len(wl.Why) > 200 {
			t.Errorf("workload %s: why has %d characters (want 1..200)", wl.Name, len(wl.Why))
		}
		if _, err := newWorkload(options{workload: wl.Name}, hostInfo{}); err != nil {
			t.Errorf("workload %s: %v", wl.Name, err)
		}
	}
	check := func(kind string, file []benchMetric, defs []metricDef, bounded bool) {
		if len(file) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the package", kind, len(file), len(defs))
		}
		seen := map[string]bool{}
		for i, m := range file {
			d := defs[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if m.Name != d.name || m.Unit != d.unit || m.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the package %s [%s, %s]",
					kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, better)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: name %q or unit %q is outside the contract, or used twice", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if bounded && !(m.Bound > 0 && m.Bound <= 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
			}
			if !bounded && m.Bound != 0 {
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bf.Paths)
	}
}

func TestCPUFlagsAndCommitFallbacks(t *testing.T) {
	if avx2, fma := cpuFlags("/nonexistent/cpuinfo"); avx2 || fma {
		t.Error("a missing cpuinfo must read as no features")
	}
	if got := gitCommit(t.TempDir()); got != "unknown" {
		t.Errorf("commit outside a repository: %q", got)
	}
}
