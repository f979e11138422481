package serve

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"github.com/evfed/evfed/internal/anomaly"
	"github.com/evfed/evfed/internal/autoencoder"
	"github.com/evfed/evfed/internal/nn"
	"github.com/evfed/evfed/internal/reftest"
	"github.com/evfed/evfed/internal/rng"
)

// testSeqLen is the shared test detector's window length.
const testSeqLen = 8

var (
	testOnce sync.Once
	testDet  *autoencoder.Detector
	testThr  float64
)

// testDetector trains one small detector per test binary and calibrates a
// last-point-score threshold on its training data.
func testDetector(t testing.TB) (*autoencoder.Detector, float64) {
	t.Helper()
	testOnce.Do(func() {
		values := testSeries(600, 11)
		cfg := autoencoder.Config{
			SeqLen:       testSeqLen,
			EncoderUnits: 6,
			Bottleneck:   3,
			Epochs:       3,
			BatchSize:    16,
			LearningRate: 0.005,
			Patience:     3,
			ValFrac:      0.1,
			TrainStride:  2,
			Seed:         5,
		}
		det, _, err := autoencoder.Train(values, cfg)
		if err != nil {
			panic(err)
		}
		testDet = det
		// Threshold = p95 of streaming last-point scores over the training
		// feed, so normal traffic mostly passes and injected spikes flag.
		sc := det.NewStreamScorer()
		ring, _ := anomaly.NewRing(testSeqLen)
		var scores []float64
		for _, v := range values {
			if _, w, ok := ring.Push(v); ok {
				s, err := sc.ScoreLast(w)
				if err != nil {
					panic(err)
				}
				scores = append(scores, s)
			}
		}
		sort.Float64s(scores)
		testThr = scores[len(scores)*95/100]
	})
	return testDet, testThr
}

// testSeries synthesizes a normal (attack-free) scaled charging feed.
func testSeries(n int, seed uint64) []float64 {
	r := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.5 + 0.35*math.Sin(2*math.Pi*float64(i)/24) + 0.05*r.NormFloat64()
	}
	return out
}

// attackSeries is testSeries with DDoS-like spikes every spikeEvery
// points.
func attackSeries(n int, seed uint64, spikeEvery int) []float64 {
	out := testSeries(n, seed)
	for i := spikeEvery; i < n; i += spikeEvery {
		out[i] += 2.5
	}
	return out
}

func newTestService(t testing.TB, cfg Config) *Service {
	t.Helper()
	det, thr := testDetector(t)
	if cfg.Detector == nil {
		cfg.Detector = det
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = thr
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// collect synchronously scores values for one station, returning verdicts
// in stream order.
func collect(t testing.TB, s *Service, station string, values []float64) []Verdict {
	t.Helper()
	out := make([]Verdict, 0, len(values))
	ch := make(chan Verdict, 1)
	for _, v := range values {
		if err := s.Submit(station, v, func(v Verdict) { ch <- v }); err != nil {
			t.Fatal(err)
		}
		out = append(out, <-ch)
	}
	return out
}

// TestServiceMatchesStream: the sharded service must be
// decision-for-decision, bit-for-bit identical to the single-feed
// anomaly.Stream over the detector's StreamScorer and the same threshold,
// and agree with the naive single-goroutine replay in internal/reftest.
func TestServiceMatchesStream(t *testing.T) {
	det, thr := testDetector(t)
	values := attackSeries(300, 29, 37)
	for _, batch := range []int{1, 4, 64} {
		s := newTestService(t, Config{Shards: 2, BatchThreshold: batch})
		got := collect(t, s, "z102", values)

		ref, err := anomaly.NewStream(det.NewStreamScorer(), thr)
		if err != nil {
			t.Fatal(err)
		}
		flagged := 0
		for i, v := range values {
			want, err := ref.Push(v)
			if err != nil {
				t.Fatal(err)
			}
			if g := got[i]; g.StreamDecision != want {
				t.Fatalf("batch %d, point %d: got %+v, want %+v", batch, i, g.StreamDecision, want)
			}
			if g := got[i]; g.Mitigated != v || g.Value != v {
				t.Fatalf("point %d: mitigation off, value %v, got mitigated %v", i, v, g.Mitigated)
			}
			if want.Flagged {
				flagged++
			}
		}
		if flagged == 0 {
			t.Fatal("test feed produced no flagged points; spikes too small")
		}
		matchesReplay(t, det, thr, false, values, got)
	}
}

// replayTol bounds |service − reference| on scores and mitigated values:
// the reference sums left to right in plain float64, the service through
// the blocked GEMM kernels.
const replayTol = 1e-12

// matchesReplay holds a station's verdicts to reftest.Replay of the same
// feed: scores and mitigated values within replayTol, and the same flag
// unless the reference score lies within replayTol of the threshold.
func matchesReplay(t *testing.T, det *autoencoder.Detector, thr float64, mitigate bool, values []float64, got []Verdict) {
	t.Helper()
	c := det.Config()
	spec := nn.AutoencoderSpec(c.SeqLen, c.EncoderUnits, c.Bottleneck, c.Dropout)
	want, err := reftest.Replay(spec, det.Model().WeightsVector(), c.SeqLen, thr, mitigate, values)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		g := got[i]
		switch {
		case g.Index != w.Index || g.Ready != w.Ready:
			t.Fatalf("point %d: got %+v, reference %+v", i, g.StreamDecision, w.StreamDecision)
		case math.Abs(g.Score-w.Score) > replayTol || math.Abs(g.Mitigated-w.Mitigated) > replayTol:
			t.Fatalf("point %d: score %v mitigated %v, reference %v %v", i, g.Score, g.Mitigated, w.Score, w.Mitigated)
		case g.Flagged != w.Flagged && math.Abs(w.Score-thr) > replayTol:
			t.Fatalf("point %d: flagged %v at score %v, reference %v, threshold %v", i, g.Flagged, g.Score, w.Score, thr)
		}
	}
}

// TestCalibrateThresholdIsServiceScore: the threshold CalibrateThreshold
// derives from a feed is bit-equal to the same percentile rank of the
// scores the service's batched scorer gives the feed's ring windows.
func TestCalibrateThresholdIsServiceScore(t *testing.T) {
	det, _ := testDetector(t)
	values := testSeries(600, 11)
	ring, err := anomaly.NewRing(testSeqLen)
	if err != nil {
		t.Fatal(err)
	}
	var windows [][]float64
	for _, v := range values {
		if _, w, ok := ring.Push(v); ok {
			windows = append(windows, append([]float64(nil), w...))
		}
	}
	scores := make([]float64, len(windows))
	if err := det.NewBatchScorer().ScoreLastInto(scores, nil, windows); err != nil {
		t.Fatal(err)
	}
	sort.Float64s(scores)
	for _, pct := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99} {
		got, err := CalibrateThreshold(det, values, pct)
		if err != nil {
			t.Fatal(err)
		}
		if want := scores[int(pct*float64(len(scores)))]; got != want {
			t.Fatalf("p%v: threshold %v, service score at that rank %v", pct*100, got, want)
		}
	}
}

// TestWaveSizeInvariance: a station's verdicts do not depend on the waves
// its points were scored in. Stations fed point by point, one at a time
// (every wave a wave of one), must get the same bits — score, flag and
// mitigated value — as the same series fed in SubmitN chunks to all
// stations at once, where waves hold many stations' windows and are split
// into steal chunks.
func TestWaveSizeInvariance(t *testing.T) {
	const stations, points, chunk = 24, 120, 16
	feeds := make([][]float64, stations)
	names := make([]string, stations)
	for k := range feeds {
		feeds[k] = attackSeries(points, uint64(60+k), 17+k%5)
		names[k] = fmt.Sprintf("st%02d", k)
	}
	single := newTestService(t, Config{Shards: 1, Mitigate: true})
	want := make([][]Verdict, stations)
	for k, feed := range feeds {
		want[k] = collect(t, single, names[k], feed)
	}

	bulk := newTestService(t, Config{Shards: 2, QueueDepth: 4096, BatchThreshold: 2, Mitigate: true})
	// Hold both shards on a gate verdict until everything is queued, so
	// the drains meet many stations at once on any core count.
	gate := make(chan struct{})
	for sh := 0; sh < 2; sh++ {
		if err := bulk.Submit(mineNames("gate", 1, 2, sh)[0], 0.5, func(Verdict) { <-gate }); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]Verdict, stations)
	handles := make([]*Station, stations)
	replies := make([]func(Verdict), stations)
	var pending sync.WaitGroup
	pending.Add(stations * points)
	for k := range handles {
		h, err := bulk.Station(names[k])
		if err != nil {
			t.Fatal(err)
		}
		handles[k] = h
		replies[k] = func(v Verdict) { // one shard goroutine per station
			got[k] = append(got[k], v)
			pending.Done()
		}
	}
	for lo := 0; lo < points; lo += chunk {
		for k, h := range handles {
			if _, err := h.SubmitN(feeds[k][lo:min(lo+chunk, points)], replies[k]); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(gate)
	pending.Wait()
	if st := bulk.Stats(); st.BatchedWindows <= st.BatchCalls {
		t.Fatalf("bulk feed never formed a multi-window wave: %+v", st)
	}
	for k := range want {
		for i, w := range want[k] {
			if g := got[k][i]; g != w {
				t.Fatalf("station %d point %d: bulk %+v, point by point %+v", k, i, g, w)
			}
		}
	}
}

// TestMitigation: a flagged observation's verdict carries its
// reconstruction, and the rewritten window keeps the spike from
// contaminating the points after it — bit for bit as a hand-rolled
// ring + batch-of-one scorer reference does (a window's score does not
// depend on its wave; TestServiceMatchesStream holds the service to the
// independent per-sample scorer).
func TestMitigation(t *testing.T) {
	det, thr := testDetector(t)
	values := attackSeries(150, 43, 31)
	s := newTestService(t, Config{Shards: 1, Mitigate: true})
	got := collect(t, s, "z105", values)

	bs := det.NewBatchScorer()
	scores, recons := make([]float64, 1), make([]float64, 1)
	ring, _ := anomaly.NewRing(testSeqLen)
	flagged := 0
	for i, v := range values {
		idx, w, ok := ring.Push(v)
		if idx != i {
			t.Fatalf("reference ring index %d at point %d", idx, i)
		}
		g := got[i]
		if !ok {
			if g.Ready || g.Mitigated != v {
				t.Fatalf("warm-up point %d: %+v", i, g)
			}
			continue
		}
		if err := bs.ScoreLastInto(scores, recons, [][]float64{w}); err != nil {
			t.Fatal(err)
		}
		score, recon := scores[0], recons[0]
		if g.Score != score {
			t.Fatalf("point %d: score %v, want %v", i, g.Score, score)
		}
		if score > thr {
			flagged++
			if !g.Flagged || g.Mitigated != recon {
				t.Fatalf("flagged point %d: %+v, want mitigated %v", i, g, recon)
			}
			ring.AmendLast(recon)
		} else if g.Flagged || g.Mitigated != v {
			t.Fatalf("clean point %d: %+v", i, g)
		}
	}
	if flagged == 0 {
		t.Fatal("no flagged points in mitigation feed")
	}
	matchesReplay(t, det, thr, true, values, got)
}

// TestManyStationsContinuity: hundreds of stations interleaved across
// shards each see a private, gap-free stream.
func TestManyStationsContinuity(t *testing.T) {
	const stations, perStation = 50, 40
	s := newTestService(t, Config{Shards: 4, BatchThreshold: 4})
	type rec struct {
		mu       sync.Mutex
		verdicts []Verdict
	}
	recs := make([]rec, stations)
	var wg sync.WaitGroup
	feed := testSeries(perStation, 7)
	for k := 0; k < stations; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			name := "st-" + string(rune('A'+k%26)) + string(rune('0'+k/26))
			done := make(chan struct{})
			n := 0
			for _, v := range feed {
				for {
					err := s.Submit(name, v, func(v Verdict) {
						recs[k].mu.Lock()
						recs[k].verdicts = append(recs[k].verdicts, v)
						n = len(recs[k].verdicts)
						recs[k].mu.Unlock()
						if n == perStation {
							close(done)
						}
					})
					if err == nil {
						break
					}
					if !errors.Is(err, ErrBacklog) {
						t.Error(err)
						return
					}
				}
			}
			<-done
		}(k)
	}
	wg.Wait()
	for k := range recs {
		vs := recs[k].verdicts
		if len(vs) != perStation {
			t.Fatalf("station %d: %d verdicts", k, len(vs))
		}
		for i, v := range vs {
			if v.Index != i {
				t.Fatalf("station %d: verdict %d has index %d", k, i, v.Index)
			}
		}
	}
	if st := s.Stats(); st.Points != stations*perStation || st.Stations != stations {
		t.Fatalf("stats %+v", st)
	}
}

// TestBackpressureBounded: a producer outrunning a stalled shard is
// bounced with ErrBacklog once the bounded queue plus one drained batch
// are in flight — memory stays bounded — and every accepted observation
// still gets its verdict once the shard unstalls.
func TestBackpressureBounded(t *testing.T) {
	const depth = 8
	s := newTestService(t, Config{Shards: 1, QueueDepth: depth, BatchThreshold: 4})
	gate := make(chan struct{})
	verdicts := make(chan Verdict, 4096)
	reply := func(v Verdict) {
		<-gate // stall the shard on its first delivery
		verdicts <- v
	}
	accepted, rejected := 0, 0
	for i := 0; i < 4096; i++ {
		switch err := s.Submit("hot", 0.5, reply); {
		case err == nil:
			accepted++
		case errors.Is(err, ErrBacklog):
			rejected++
		default:
			t.Fatal(err)
		}
	}
	// Bound: the queue (depth) plus at most one drained batch (maxDrain,
	// = max(depth, batch threshold) here) may be in flight.
	if maxInFlight := 2*depth + 1; accepted > maxInFlight {
		t.Fatalf("accepted %d observations with queue depth %d (bound %d)", accepted, depth, maxInFlight)
	}
	if rejected == 0 {
		t.Fatal("no submissions rejected")
	}
	close(gate)
	for i := 0; i < accepted; i++ {
		<-verdicts
	}
	if st := s.Stats(); st.Rejected != uint64(rejected) {
		t.Fatalf("stats rejected %d, want %d", st.Rejected, rejected)
	}
	// The shard recovers: a fresh submission round-trips.
	done := make(chan Verdict, 1)
	if err := s.Submit("hot", 0.5, func(v Verdict) { done <- v }); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestSubmitValidation covers the error surface.
func TestSubmitValidation(t *testing.T) {
	s := newTestService(t, Config{Shards: 1})
	if err := s.Submit("", 1, func(Verdict) {}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty station: %v", err)
	}
	if err := s.Submit("s", 1, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil reply: %v", err)
	}
	s.Close()
	if err := s.Submit("s", 1, func(Verdict) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed: %v", err)
	}
	if _, err := New(Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil detector: %v", err)
	}
	det, _ := testDetector(t)
	if _, err := New(Config{Detector: det}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero threshold: %v", err)
	}
}

// TestStationLimit: a producer inventing station names is bounded by
// MaxStations; known stations keep working at the limit.
func TestStationLimit(t *testing.T) {
	s := newTestService(t, Config{Shards: 1, MaxStations: 2})
	ch := make(chan Verdict, 4)
	reply := func(v Verdict) { ch <- v }
	if err := s.Submit("a", 1, reply); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit("b", 1, reply); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit("c", 1, reply); !errors.Is(err, ErrStationLimit) {
		t.Fatalf("third station: %v", err)
	}
	if err := s.Submit("a", 2, reply); err != nil {
		t.Fatalf("known station at limit: %v", err)
	}
	for i := 0; i < 3; i++ {
		<-ch
	}
}

// TestCloseDrains: observations accepted before Close still get verdicts.
func TestCloseDrains(t *testing.T) {
	s := newTestService(t, Config{Shards: 2, QueueDepth: 256})
	var mu sync.Mutex
	n := 0
	accepted := 0
	for i := 0; i < 100; i++ {
		err := s.Submit("a", 0.5, func(Verdict) { mu.Lock(); n++; mu.Unlock() })
		if err == nil {
			accepted++
		}
	}
	s.Close()
	mu.Lock()
	defer mu.Unlock()
	if n != accepted {
		t.Fatalf("%d verdicts for %d accepted observations", n, accepted)
	}
}
