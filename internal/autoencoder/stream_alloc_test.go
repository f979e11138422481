package autoencoder

import (
	"math"
	"testing"

	"github.com/evfed/evfed/internal/anomaly"
)

// TestStreamScorerMatchesAdapter: the reusable scorer must produce
// bit-identical scores to the stateless Adapter, and both must be the
// last-point score BatchScorer gives the same window.
func TestStreamScorerMatchesAdapter(t *testing.T) {
	det, _, err := Train(dailySine(200, 0.02, 61), smallConfig(62))
	if err != nil {
		t.Fatal(err)
	}
	a := Adapter{Detector: det}
	s := det.NewStreamScorer()
	if s.WindowLen() != a.WindowLen() {
		t.Fatalf("window len %d vs %d", s.WindowLen(), a.WindowLen())
	}
	live := dailySine(3*det.Config().SeqLen, 0.02, 63)
	bs := det.NewBatchScorer()
	batched := make([]float64, 1)
	for start := 0; start+det.Config().SeqLen <= len(live); start++ {
		win := live[start : start+det.Config().SeqLen]
		want, err := a.ScoreLast(win)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.ScoreLast(win)
		if err != nil {
			t.Fatal(err)
		}
		if err := bs.ScoreLastInto(batched, nil, [][]float64{win}); err != nil {
			t.Fatal(err)
		}
		if got != want || got != batched[0] {
			t.Fatalf("window %d: stream %v, adapter %v, batch %v", start, got, want, batched[0])
		}
	}
	if _, err := s.ScoreLast(make([]float64, 3)); err == nil {
		t.Fatal("wrong window size should error")
	}
}

// TestStreamingDetectionZeroAlloc is the tentpole's streaming guard: a
// full Stream.Push through the trained autoencoder (ring buffer + window
// reconstruction) allocates nothing once warm.
func TestStreamingDetectionZeroAlloc(t *testing.T) {
	det, _, err := Train(dailySine(200, 0.02, 64), smallConfig(65))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := anomaly.NewStream(det.NewStreamScorer(), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	live := dailySine(3*det.Config().SeqLen, 0.02, 66)
	for _, v := range live {
		if _, err := stream.Push(v); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	n := testing.AllocsPerRun(50, func() {
		if _, err := stream.Push(live[i%len(live)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if n != 0 {
		t.Fatalf("streaming Push allocates %v times in steady state", n)
	}
}

// BenchmarkDetectorStreamPush measures the full per-point cost of live
// detection with the paper's window (24) and a trained reduced detector.
func BenchmarkDetectorStreamPush(b *testing.B) {
	det, _, err := Train(dailySine(200, 0.02, 67), smallConfig(68))
	if err != nil {
		b.Fatal(err)
	}
	stream, err := anomaly.NewStream(det.NewStreamScorer(), math.Inf(1))
	if err != nil {
		b.Fatal(err)
	}
	live := dailySine(400, 0.02, 69)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stream.Push(live[i%len(live)]); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNewStreamScorerUntrained(t *testing.T) {
	var d *Detector
	s := d.NewStreamScorer()
	if s.WindowLen() != 0 {
		t.Fatalf("nil detector window len %d", s.WindowLen())
	}
	if _, err := s.ScoreLast(make([]float64, 1)); err == nil {
		t.Fatal("nil detector should error")
	}
}
