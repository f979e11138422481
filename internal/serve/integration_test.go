package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/evfed/evfed/internal/fed"
	"github.com/evfed/evfed/internal/nn"
)

// TestFederatedHotReloadLoop is the full serving loop of DESIGN.md §9: a
// federation of reconstruction (autoencoder) clients trains the detector
// architecture while the coordinator's OnRound hook pushes every round's
// aggregated weights into a live scoring service — under continuous
// traffic, with zero dropped verdicts and one epoch per round.
func TestFederatedHotReloadLoop(t *testing.T) {
	det, _ := testDetector(t)
	spec := nn.AutoencoderSpec(testSeqLen, det.Config().EncoderUnits, det.Config().Bottleneck, det.Config().Dropout)
	if dim := det.Model().NumParams(); dim == 0 {
		t.Fatal("empty model")
	}

	s := newTestService(t, Config{Shards: 2})

	var handles []fed.ClientHandle
	for i := 0; i < 3; i++ {
		c, err := fed.NewReconstructionClient("st-"+string(rune('a'+i)), spec, testSeries(80, uint64(40+i)), testSeqLen, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, c)
	}

	const rounds = 3
	var reloaded atomic.Int32
	cfg := fed.Config{
		Rounds:         rounds,
		EpochsPerRound: 1,
		BatchSize:      16,
		LearningRate:   0.003,
		Seed:           7,
		Parallel:       true,
		OnRound: func(stat fed.RoundStat, global []float64) {
			if _, err := s.ReloadWeights(global, 0); err != nil {
				t.Errorf("round %d reload: %v", stat.Round, err)
				return
			}
			reloaded.Add(1)
		},
	}
	co, err := fed.NewCoordinator(spec, handles, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Traffic flows during the entire federation.
	stop := make(chan struct{})
	var delivered, submitted atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		feed := attackSeries(4096, 17, 29)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			err := s.Submit("live", feed[i%len(feed)], func(Verdict) { delivered.Add(1) })
			if err == nil {
				submitted.Add(1)
			} else if !errors.Is(err, ErrBacklog) {
				t.Error(err)
				return
			}
		}
	}()

	res, err := co.Run()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Global) != det.Model().NumParams() {
		t.Fatalf("global dim %d", len(res.Global))
	}
	if int(reloaded.Load()) != rounds {
		t.Fatalf("reloaded %d times, want %d", reloaded.Load(), rounds)
	}
	if s.Epoch() != 1+rounds {
		t.Fatalf("epoch %d, want %d", s.Epoch(), 1+rounds)
	}
	// Drain: everything submitted during training must come back.
	s.Close()
	if delivered.Load() != submitted.Load() {
		t.Fatalf("delivered %d of %d verdicts", delivered.Load(), submitted.Load())
	}
}
