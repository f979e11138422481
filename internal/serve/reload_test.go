package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/evfed/evfed/internal/autoencoder"
	"github.com/evfed/evfed/internal/rng"
)

// perturbedWeights returns the test detector's weight vector with small
// deterministic noise — a stand-in for a freshly federated round result.
func perturbedWeights(t testing.TB, seed uint64) []float64 {
	t.Helper()
	det, _ := testDetector(t)
	w := det.Model().WeightsVector()
	r := rng.New(seed)
	for i := range w {
		w[i] += 0.01 * r.NormFloat64()
	}
	return w
}

// TestReloadSwapsModelAndThreshold: a reload bumps the epoch, new
// verdicts carry it, scores move with the new weights, and a ≤ 0
// threshold keeps the serving one.
func TestReloadSwapsModelAndThreshold(t *testing.T) {
	det, thr := testDetector(t)
	s := newTestService(t, Config{Shards: 1})
	values := testSeries(60, 77)
	before := collect(t, s, "a", values)

	w := perturbedWeights(t, 3)
	epoch, err := s.ReloadWeights(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || s.Epoch() != 2 {
		t.Fatalf("epoch %d after first reload", epoch)
	}
	if s.Threshold() != thr {
		t.Fatalf("threshold changed on keep-threshold reload: %v != %v", s.Threshold(), thr)
	}
	after := collect(t, s, "b", values)
	changed := false
	for i := range after {
		if after[i].Epoch != 2 {
			t.Fatalf("verdict %d carries epoch %d", i, after[i].Epoch)
		}
		if after[i].Ready && before[i].Score != after[i].Score {
			changed = true
		}
	}
	if !changed {
		t.Fatal("perturbed weights did not change any score")
	}

	// Full-detector reload with a new threshold.
	if epoch, err = s.Reload(det, thr*2); err != nil || epoch != 3 {
		t.Fatalf("reload: epoch %d, err %v", epoch, err)
	}
	if s.Threshold() != thr*2 {
		t.Fatalf("threshold %v, want %v", s.Threshold(), thr*2)
	}
}

// TestReloadRejections: wrong dimension, wrong window length, and
// untrained detectors are rejected without disturbing the serving model.
func TestReloadRejections(t *testing.T) {
	s := newTestService(t, Config{Shards: 1})
	if _, err := s.ReloadWeights([]float64{1, 2, 3}, 0); !errors.Is(err, ErrReload) {
		t.Fatalf("short vector: %v", err)
	}
	if _, err := s.Reload(nil, 0); !errors.Is(err, ErrReload) {
		t.Fatalf("nil detector: %v", err)
	}
	other, _, err := autoencoder.Train(testSeries(300, 5), autoencoder.Config{
		SeqLen: testSeqLen + 4, EncoderUnits: 4, Bottleneck: 2, Epochs: 1,
		BatchSize: 16, LearningRate: 0.01, TrainStride: 4, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reload(other, 0); !errors.Is(err, ErrReload) {
		t.Fatalf("window mismatch: %v", err)
	}
	if s.Epoch() != 1 {
		t.Fatalf("rejected reloads bumped epoch to %d", s.Epoch())
	}
}

// TestHotReloadUnderLoad is the serving guarantee under -race: with
// producers hammering many stations while reloads fire concurrently,
// every accepted observation gets exactly one verdict, per-station
// indices stay contiguous (no in-flight window is dropped across a
// swap), per-station epochs are non-decreasing, and the final epoch
// accounts for every reload.
func TestHotReloadUnderLoad(t *testing.T) {
	const (
		producers  = 4
		stations   = 12 // per producer
		perStation = 60
		reloads    = 5
	)
	s := newTestService(t, Config{Shards: 3, QueueDepth: 64, Mitigate: true})
	feed := attackSeries(perStation, 13, 17)

	var delivered atomic.Uint64
	reloadGate := make(chan struct{}) // release reloads once traffic flows
	var gateOnce sync.Once

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			type stationRec struct {
				name string
				got  []Verdict
				done chan struct{}
			}
			recs := make([]*stationRec, stations)
			var mu sync.Mutex
			for k := range recs {
				recs[k] = &stationRec{
					name: "p" + string(rune('0'+p)) + "-s" + string(rune('a'+k)),
					done: make(chan struct{}),
				}
			}
			for i := 0; i < perStation; i++ {
				for _, rec := range recs {
					rec := rec
					for {
						err := s.Submit(rec.name, feed[i], func(v Verdict) {
							mu.Lock()
							rec.got = append(rec.got, v)
							n := len(rec.got)
							mu.Unlock()
							delivered.Add(1)
							if n == perStation {
								close(rec.done)
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
				if i == 2 {
					gateOnce.Do(func() { close(reloadGate) })
				}
			}
			for _, rec := range recs {
				<-rec.done
			}
			mu.Lock()
			defer mu.Unlock()
			for _, rec := range recs {
				lastEpoch := 0
				for i, v := range rec.got {
					if v.Index != i {
						t.Errorf("station %s: verdict %d has index %d (dropped in-flight window)", rec.name, i, v.Index)
						return
					}
					if v.Epoch < lastEpoch {
						t.Errorf("station %s: epoch went backwards %d → %d", rec.name, lastEpoch, v.Epoch)
						return
					}
					lastEpoch = v.Epoch
				}
			}
		}(p)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		<-reloadGate
		for r := 0; r < reloads; r++ {
			if _, err := s.ReloadWeights(perturbedWeights(t, uint64(100+r)), 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Wait()
	want := uint64(producers * stations * perStation)
	if delivered.Load() != want {
		t.Fatalf("delivered %d verdicts, want %d", delivered.Load(), want)
	}
	if s.Epoch() != 1+reloads {
		t.Fatalf("final epoch %d, want %d", s.Epoch(), 1+reloads)
	}
	if st := s.Stats(); st.Points != want {
		t.Fatalf("stats points %d, want %d", st.Points, want)
	}
}
