package autoencoder

import "fmt"

// Adapter adapts a trained Detector to the anomaly.Scorer interface, so
// the autoencoder plugs into the same filter pipeline as the statistical
// baselines.
type Adapter struct {
	// Detector is the trained autoencoder detector.
	Detector *Detector
}

// Name implements anomaly.Scorer.
func (a Adapter) Name() string {
	if a.Detector == nil {
		return "lstm-autoencoder(untrained)"
	}
	c := a.Detector.Config()
	return fmt.Sprintf("lstm-autoencoder(%d→%d)", c.EncoderUnits, c.Bottleneck)
}

// Scores implements anomaly.Scorer.
func (a Adapter) Scores(values []float64) ([]float64, error) {
	return a.Detector.PointScores(values)
}

// ScoreWindows implements anomaly.WindowScorer: each window is scored by
// its reconstruction MSE through the detector's batched inference path.
// The detector reuses one cached fleet scorer under a mutex, so repeated
// calls are allocation-amortized but serialize; hold a
// Detector.NewBatchScorer per goroutine to score in parallel.
func (a Adapter) ScoreWindows(windows [][]float64) ([]float64, error) {
	if a.Detector == nil {
		return nil, ErrNotTrained
	}
	return a.Detector.ScoreWindows(windows)
}

// WindowLen implements anomaly.LastPointScorer.
func (a Adapter) WindowLen() int {
	if a.Detector == nil {
		return 0
	}
	return a.Detector.Config().SeqLen
}

// ScoreLast implements anomaly.LastPointScorer: the window ending at the
// newest point is reconstructed and the squared error of that point is
// its score (the streaming analogue of PointScores, which additionally
// averages over future windows a live detector does not have yet).
//
// Adapter is stateless, so every call allocates its intermediates; a
// long-lived stream should use Detector.NewStreamScorer instead.
func (a Adapter) ScoreLast(window []float64) (float64, error) {
	if a.Detector == nil || a.Detector.model == nil {
		return 0, ErrNotTrained
	}
	return a.Detector.NewStreamScorer().ScoreLast(window)
}

// StreamScorer is the reusable-buffer form of Adapter for online
// detection: a BatchScorer that scores one window per call, a batch of
// one. The batched kernels are row-invariant, so a streamed score and
// reconstruction are bit-identical to the ones the sharded service
// computes for the same window in a wave of any size. Scoring a streamed
// point is allocation-free in steady state. Not safe for concurrent use
// (anomaly.Stream is single-goroutine by contract).
type StreamScorer struct {
	bs     *BatchScorer
	window [1][]float64
	score  [1]float64
	recon  [1]float64
}

// NewStreamScorer builds an allocation-free anomaly.LastPointScorer
// around the trained detector. An untrained detector yields a scorer
// whose ScoreLast returns ErrNotTrained (mirroring Adapter).
func (d *Detector) NewStreamScorer() *StreamScorer {
	return &StreamScorer{bs: d.NewBatchScorer()}
}

// WindowLen implements anomaly.LastPointScorer.
func (s *StreamScorer) WindowLen() int {
	if s.bs.det == nil {
		return 0
	}
	return s.bs.det.cfg.SeqLen
}

// ScoreLast implements anomaly.LastPointScorer.
func (s *StreamScorer) ScoreLast(window []float64) (float64, error) {
	score, _, err := s.ScoreLastRecon(window)
	return score, err
}

// ScoreLastRecon scores the window's final point and also returns that
// point's reconstruction, the value an online mitigation stage
// substitutes for a flagged raw reading (the streaming analogue of the
// offline filter's interpolation).
func (s *StreamScorer) ScoreLastRecon(window []float64) (score, recon float64, err error) {
	s.window[0] = window
	err = s.bs.ScoreLastInto(s.score[:], s.recon[:], s.window[:])
	s.window[0] = nil // the window aliases the caller's ring; do not retain it
	if err != nil {
		return 0, 0, err
	}
	return s.score[0], s.recon[0], nil
}
