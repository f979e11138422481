package autoencoder

import (
	"errors"
	"math"
	"testing"

	"github.com/evfed/evfed/internal/nn"
	"github.com/evfed/evfed/internal/rng"
)

// tinyDetector trains a small, fast detector for scoring tests.
func tinyDetector(t testing.TB) (*Detector, []float64) {
	t.Helper()
	r := rng.New(77)
	values := make([]float64, 300)
	for i := range values {
		values[i] = 0.5 + 0.3*math.Sin(2*math.Pi*float64(i)/24) + r.Normal(0, 0.01)
	}
	cfg := DefaultConfig()
	cfg.SeqLen = 12
	cfg.EncoderUnits = 8
	cfg.Bottleneck = 4
	cfg.Epochs = 2
	cfg.ValFrac = 0
	cfg.TrainStride = 3
	cfg.Workers = 1
	det, _, err := Train(values, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return det, values
}

// TestScoreWindowsMatchesPerSample pins batched window scoring to the
// per-sample reference: SequenceErrors (batched internally) and
// ScoreWindows must agree with window-at-a-time PredictWS scoring within
// the batched path's tolerance.
func TestScoreWindowsMatchesPerSample(t *testing.T) {
	det, values := tinyDetector(t)
	seqLen := det.Config().SeqLen

	errsBatched, err := det.SequenceErrors(values)
	if err != nil {
		t.Fatal(err)
	}
	nWin := len(values) - seqLen + 1
	if len(errsBatched) != nWin {
		t.Fatalf("%d errors for %d windows", len(errsBatched), nWin)
	}

	windows := make([][]float64, nWin)
	for s := 0; s < nWin; s++ {
		windows[s] = values[s : s+seqLen]
	}
	scores, err := det.ScoreWindows(windows)
	if err != nil {
		t.Fatal(err)
	}

	var loss nn.MSE
	ws := nn.NewWorkspace()
	seq := make(nn.Seq, seqLen)
	for s := 0; s < nWin; s++ {
		windowSeq(seq, values, s, seqLen)
		want := loss.Value(det.Model().PredictWS(seq, ws), seq)
		if math.Abs(errsBatched[s]-want) > 1e-9 {
			t.Fatalf("SequenceErrors[%d] = %v, per-sample %v", s, errsBatched[s], want)
		}
		if math.Abs(scores[s]-want) > 1e-9 {
			t.Fatalf("ScoreWindows[%d] = %v, per-sample %v", s, scores[s], want)
		}
	}
}

func TestScoreWindowsValidation(t *testing.T) {
	det, values := tinyDetector(t)
	if _, err := det.ScoreWindows([][]float64{values[:5]}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig for short window, got %v", err)
	}
	var none *Detector
	if _, err := none.ScoreWindows([][]float64{values[:12]}); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("want ErrNotTrained, got %v", err)
	}
	bs := none.NewBatchScorer()
	if err := bs.ScoreWindowsInto(nil, nil); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("want ErrNotTrained from scorer, got %v", err)
	}
	trained := det.NewBatchScorer()
	if err := trained.ScoreWindowsInto(make([]float64, 1), nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig for length mismatch, got %v", err)
	}
	if scores, err := det.ScoreWindows(nil); err != nil || len(scores) != 0 {
		t.Fatalf("empty batch: %v, %v", scores, err)
	}
}

// TestBatchScorerSteadyStateAllocs is the alloc guard for the batched
// scoring hot path: a warmed BatchScorer scores repeatedly without
// allocating.
func TestBatchScorerSteadyStateAllocs(t *testing.T) {
	det, values := tinyDetector(t)
	seqLen := det.Config().SeqLen
	windows := make([][]float64, 64)
	for i := range windows {
		windows[i] = values[i : i+seqLen]
	}
	dst := make([]float64, len(windows))
	bs := det.NewBatchScorer()
	for i := 0; i < 3; i++ {
		if err := bs.ScoreWindowsInto(dst, windows); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := bs.ScoreWindowsInto(dst, windows); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("batched scoring allocated %v times per run", allocs)
	}
}

// TestScoreLastWaveInvariant: a window's score and reconstruction do not
// depend on the wave it is scored in. Each of 33 windows scored alone
// must be bit-identical to the same window at every position of waves of
// 1…33 (wave w holds windows (w+p) mod 33 at positions p = 0…w−1, so
// every chunk height and every row slot of the kernels is exercised).
func TestScoreLastWaveInvariant(t *testing.T) {
	det, values := tinyDetector(t)
	seqLen := det.Config().SeqLen
	const n = 33
	windows := make([][]float64, n)
	for i := range windows {
		windows[i] = values[7*i : 7*i+seqLen]
	}
	bs := det.NewBatchScorer()
	alone := make([]float64, n)
	aloneRec := make([]float64, n)
	for i, w := range windows {
		if err := bs.ScoreLastInto(alone[i:i+1], aloneRec[i:i+1], [][]float64{w}); err != nil {
			t.Fatal(err)
		}
	}
	wave := make([][]float64, n)
	scores := make([]float64, n)
	recons := make([]float64, n)
	differ := 0
	for size := 1; size <= n; size++ {
		for p := 0; p < size; p++ {
			wave[p] = windows[(size+p)%n]
		}
		if err := bs.ScoreLastInto(scores[:size], recons[:size], wave[:size]); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < size; p++ {
			i := (size + p) % n
			if scores[p] != alone[i] || recons[p] != aloneRec[i] {
				if differ == 0 {
					t.Errorf("window %d at position %d of a wave of %d: score %v recon %v, alone %v %v",
						i, p, size, scores[p], recons[p], alone[i], aloneRec[i])
				}
				differ++
			}
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d comparisons differ from the window scored alone", differ, n*(n+1)/2)
	}
}

// TestScoreLastMixedWavesZeroAlloc: once every chunk height has been seen,
// a run of mixed wave sizes — the serving pattern — allocates nothing.
func TestScoreLastMixedWavesZeroAlloc(t *testing.T) {
	det, values := tinyDetector(t)
	seqLen := det.Config().SeqLen
	windows := make([][]float64, 64)
	for i := range windows {
		windows[i] = values[i : i+seqLen]
	}
	scores := make([]float64, len(windows))
	recons := make([]float64, len(windows))
	sizes := []int{1, 2, 3, 5, 8, 33, 1, 17, 64, 7, 1}
	bs := det.NewBatchScorer()
	run := func() {
		for _, n := range sizes {
			if err := bs.ScoreLastInto(scores[:n], recons[:n], windows[:n]); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("mixed wave sizes allocated %v times per run", allocs)
	}
}

// BenchmarkDetectorScoreWindows measures fleet-style batched window
// scoring through the detector (64 windows per call, batch 32 inside).
func BenchmarkDetectorScoreWindows(b *testing.B) {
	det, values := tinyDetector(b)
	seqLen := det.Config().SeqLen
	windows := make([][]float64, 64)
	for i := range windows {
		windows[i] = values[i : i+seqLen]
	}
	dst := make([]float64, len(windows))
	bs := det.NewBatchScorer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bs.ScoreWindowsInto(dst, windows); err != nil {
			b.Fatal(err)
		}
	}
}
