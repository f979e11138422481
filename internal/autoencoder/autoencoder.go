// Package autoencoder implements the paper's unsupervised anomaly
// detector: an LSTM autoencoder (encoder LSTM(50)→LSTM(25), decoder
// RepeatVector→LSTM(25)→LSTM(50)→Dense(1), dropout 0.2) trained to
// reconstruct normal charging sequences. Reconstruction error — mean
// squared error between a sequence and its reconstruction — is the
// anomaly score; the 98th percentile of training-set errors becomes the
// detection threshold (applied in package anomaly).
package autoencoder

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"github.com/evfed/evfed/internal/nn"
	"github.com/evfed/evfed/internal/series"
)

// Errors returned by the package.
var (
	ErrBadConfig  = errors.New("autoencoder: invalid configuration")
	ErrNotTrained = errors.New("autoencoder: detector not trained")
)

// Config parameterizes the detector. DefaultConfig matches the paper.
type Config struct {
	// SeqLen is the reconstruction window length (paper: 24).
	SeqLen int
	// EncoderUnits is the outer LSTM width (paper: 50).
	EncoderUnits int
	// Bottleneck is the inner LSTM width (paper: 25).
	Bottleneck int
	// Dropout is the dropout rate (paper: 0.2).
	Dropout float64
	// Epochs bounds training passes; early stopping applies (patience 10).
	Epochs int
	// BatchSize is the minibatch size (paper: 32).
	BatchSize int
	// LearningRate feeds Adam (paper: 1e-3).
	LearningRate float64
	// Patience is the early-stopping patience (paper: 10).
	Patience int
	// ValFrac is the validation fraction for early stopping.
	ValFrac float64
	// TrainStride is the hop between training sequences (1 = fully
	// overlapping; larger values trade fidelity for speed).
	TrainStride int
	// Seed drives initialization, shuffling and dropout.
	Seed uint64
	// Workers is the parallel gradient worker count (0 = GOMAXPROCS).
	Workers int
}

// DefaultConfig returns the paper's hyperparameters.
func DefaultConfig() Config {
	return Config{
		SeqLen:       24,
		EncoderUnits: 50,
		Bottleneck:   25,
		Dropout:      0.2,
		Epochs:       30,
		BatchSize:    32,
		LearningRate: 0.001,
		Patience:     10,
		ValFrac:      0.1,
		TrainStride:  1,
		Seed:         1,
	}
}

func (c Config) validate() error {
	switch {
	case c.SeqLen <= 0:
		return fmt.Errorf("%w: seqLen %d", ErrBadConfig, c.SeqLen)
	case c.EncoderUnits <= 0 || c.Bottleneck <= 0:
		return fmt.Errorf("%w: units %d/%d", ErrBadConfig, c.EncoderUnits, c.Bottleneck)
	case c.Epochs <= 0 || c.BatchSize <= 0:
		return fmt.Errorf("%w: epochs %d batch %d", ErrBadConfig, c.Epochs, c.BatchSize)
	case c.LearningRate <= 0:
		return fmt.Errorf("%w: lr %v", ErrBadConfig, c.LearningRate)
	case c.TrainStride <= 0:
		return fmt.Errorf("%w: stride %d", ErrBadConfig, c.TrainStride)
	}
	return nil
}

// Detector is a trained LSTM-autoencoder anomaly scorer. Values fed to the
// detector must be scaled the same way as the training data (the pipeline
// uses per-client MinMax scaling to [0, 1]).
type Detector struct {
	cfg   Config
	model *nn.Model

	// fleet is the lazily-built batch scorer behind ScoreWindows; the
	// mutex serializes fleet calls so the scorer's workspace keeps its
	// single-owner contract.
	fleetMu sync.Mutex
	fleet   *BatchScorer
}

// Train fits the autoencoder on normal (non-anomalous) values, as the
// paper prescribes: the model learns baseline reconstruction patterns and
// later scores deviations from them.
func Train(values []float64, cfg Config) (*Detector, nn.History, error) {
	if err := cfg.validate(); err != nil {
		return nil, nn.History{}, err
	}
	seqs, err := series.MakeSequences(values, cfg.SeqLen, cfg.TrainStride)
	if err != nil {
		return nil, nn.History{}, fmt.Errorf("autoencoder: build training sequences: %w", err)
	}
	model, err := nn.Build(nn.AutoencoderSpec(cfg.SeqLen, cfg.EncoderUnits, cfg.Bottleneck, cfg.Dropout), cfg.Seed)
	if err != nil {
		return nil, nn.History{}, fmt.Errorf("autoencoder: build model: %w", err)
	}
	inputs := make([]nn.Seq, len(seqs))
	for i, s := range seqs {
		inputs[i] = s
	}
	tc := nn.DefaultTrainConfig(cfg.Epochs, cfg.Seed+1)
	tc.BatchSize = cfg.BatchSize
	tc.Optimizer = nn.NewAdam(cfg.LearningRate)
	tc.ValFrac = cfg.ValFrac
	tc.Patience = cfg.Patience
	tc.Workers = cfg.Workers
	hist, err := nn.Fit(model, inputs, inputs, tc)
	if err != nil {
		return nil, hist, fmt.Errorf("autoencoder: fit: %w", err)
	}
	return &Detector{cfg: cfg, model: model}, hist, nil
}

// Config returns the detector's configuration.
func (d *Detector) Config() Config { return d.cfg }

// Model exposes the underlying network (read-mostly; used for weight
// persistence).
func (d *Detector) Model() *nn.Model { return d.model }

// windowSeq overwrites seq with one-feature views of the window starting
// at values[s]: seq[k] aliases values[s+k : s+k+1], so building a scoring
// window copies nothing. Layers never mutate their input, which makes the
// aliasing safe.
func windowSeq(seq nn.Seq, values []float64, s, seqLen int) {
	for k := 0; k < seqLen; k++ {
		seq[k] = values[s+k : s+k+1 : s+k+1]
	}
}

// scoreBatch is the number of windows reconstructed per batched inference
// pass (the shared chunked-inference sub-batch size).
const scoreBatch = nn.PredictBatch

// BatchScorer owns the reusable buffers for repeated batched window
// scoring: an inference workspace and zero-copy window views. Steady-state
// scoring through ScoreWindowsInto is allocation-free. Not safe for
// concurrent use; parallel scorers each own one (PointScores does this).
type BatchScorer struct {
	det  *Detector
	ws   *nn.Workspace
	seqs []nn.Seq
}

// NewBatchScorer builds a batched window scorer around the trained
// detector. An untrained detector yields a scorer whose methods return
// ErrNotTrained.
func (d *Detector) NewBatchScorer() *BatchScorer {
	if d == nil || d.model == nil {
		return &BatchScorer{det: d}
	}
	s := &BatchScorer{det: d, ws: nn.NewWorkspace(), seqs: make([]nn.Seq, scoreBatch)}
	for i := range s.seqs {
		s.seqs[i] = make(nn.Seq, d.cfg.SeqLen)
	}
	return s
}

// checkWindows validates a scoring call: a trained detector, n output
// slots for the windows, and every window exactly SeqLen long.
func (s *BatchScorer) checkWindows(n int, windows [][]float64) error {
	if s.det == nil || s.det.model == nil {
		return ErrNotTrained
	}
	if n != len(windows) {
		return fmt.Errorf("%w: %d scores for %d windows", ErrBadConfig, n, len(windows))
	}
	for i, w := range windows {
		if len(w) != s.det.cfg.SeqLen {
			return fmt.Errorf("%w: window %d has %d values, need %d", ErrBadConfig, i, len(w), s.det.cfg.SeqLen)
		}
	}
	return nil
}

// chunkLen is the size of the next forward pass over rest windows: the
// largest power of two not above min(rest, scoreBatch). A wave of any
// size is scored as a sum of the six batch heights 32, 16, 8, 4, 2 and
// 1, so the scorer's workspace never holds more than six sets of batch
// panels, however many wave sizes it meets.
func chunkLen(rest int) int {
	if rest >= scoreBatch {
		return scoreBatch
	}
	return 1 << (bits.Len(uint(rest)) - 1)
}

// reconstruct runs one batched forward pass over at most scoreBatch
// windows. The returned sequences alias the scorer's workspace until the
// next call.
func (s *BatchScorer) reconstruct(windows [][]float64) []nn.Seq {
	for i, w := range windows {
		windowSeq(s.seqs[i], w, 0, s.det.cfg.SeqLen)
	}
	return s.det.model.PredictBatchWS(s.seqs[:len(windows)], s.ws)
}

// ScoreWindowsInto writes the reconstruction MSE of each window (all of
// the detector's SeqLen) into dst[i]. len(dst) must equal len(windows).
// Windows are reconstructed in power-of-two chunks (chunkLen) through the
// batched forward path; in steady state the call performs no allocation.
func (s *BatchScorer) ScoreWindowsInto(dst []float64, windows [][]float64) error {
	if err := s.checkWindows(len(dst), windows); err != nil {
		return err
	}
	var loss nn.MSE
	for lo := 0; lo < len(windows); {
		hi := lo + chunkLen(len(windows)-lo)
		for i, out := range s.reconstruct(windows[lo:hi]) {
			dst[lo+i] = loss.Value(out, s.seqs[i])
		}
		lo = hi
	}
	return nil
}

// ScoreLastInto writes each window's last-point anomaly score — the
// squared error between the window's final value and its reconstruction,
// the streaming criterion — into scores[i]. If recons is non-nil (same
// length) it receives the reconstruction of each window's final point,
// which a mitigation stage can substitute for a flagged raw value.
// Windows are reconstructed in power-of-two chunks (chunkLen) through the
// batched forward path; in steady state the call performs no allocation.
// This is the only last-point scoring path: the sharded service scores
// its waves with it and StreamScorer is a batch of one over it. The
// batched kernels are row-invariant (DESIGN.md §7), so a window's score
// and reconstruction are bit-identical whatever wave it arrives in and
// wherever it sits in it.
func (s *BatchScorer) ScoreLastInto(scores, recons []float64, windows [][]float64) error {
	if err := s.checkWindows(len(scores), windows); err != nil {
		return err
	}
	if recons != nil && len(recons) != len(windows) {
		return fmt.Errorf("%w: %d recons for %d windows", ErrBadConfig, len(recons), len(windows))
	}
	last := s.det.cfg.SeqLen - 1
	for lo := 0; lo < len(windows); {
		hi := lo + chunkLen(len(windows)-lo)
		for i, out := range s.reconstruct(windows[lo:hi]) {
			rec := out[last][0]
			d := windows[lo+i][last] - rec
			scores[lo+i] = d * d
			if recons != nil {
				recons[lo+i] = rec
			}
		}
		lo = hi
	}
	return nil
}

// ScoreWindows is ScoreWindowsInto with a freshly allocated result slice.
func (s *BatchScorer) ScoreWindows(windows [][]float64) ([]float64, error) {
	dst := make([]float64, len(windows))
	if err := s.ScoreWindowsInto(dst, windows); err != nil {
		return nil, err
	}
	return dst, nil
}

// ScoreWindows batch-scores independent SeqLen-length windows: each
// window's score is its reconstruction MSE, the paper's sequence-level
// anomaly criterion. The detector lazily builds and caches one fleet
// scorer for this entry point (a Workspace belongs to one goroutine, so
// concurrent calls serialize on it); hold your own NewBatchScorer to
// score from several goroutines at once.
func (d *Detector) ScoreWindows(windows [][]float64) ([]float64, error) {
	if d == nil || d.model == nil {
		return nil, ErrNotTrained
	}
	d.fleetMu.Lock()
	defer d.fleetMu.Unlock()
	if d.fleet == nil {
		d.fleet = d.NewBatchScorer()
	}
	return d.fleet.ScoreWindows(windows)
}

// SequenceErrors returns the reconstruction MSE of every stride-1 window
// of values, indexed by window start. Windows are scored scoreBatch at a
// time through the batched forward path with zero-copy window views, so
// the sweep allocates nothing beyond the result, the window headers and
// one scorer.
func (d *Detector) SequenceErrors(values []float64) ([]float64, error) {
	if d == nil || d.model == nil {
		return nil, ErrNotTrained
	}
	if len(values) < d.cfg.SeqLen {
		return nil, fmt.Errorf("autoencoder: build scoring sequences: %w: %d values for sequence length %d",
			series.ErrTooShort, len(values), d.cfg.SeqLen)
	}
	nWin := len(values) - d.cfg.SeqLen + 1
	windows := make([][]float64, nWin)
	for s := range windows {
		windows[s] = values[s : s+d.cfg.SeqLen : s+d.cfg.SeqLen]
	}
	out := make([]float64, nWin)
	if err := d.NewBatchScorer().ScoreWindowsInto(out, windows); err != nil {
		return nil, err
	}
	return out, nil
}

// PointScores assigns an anomaly score to every point of values: each
// overlapping window is reconstructed, reconstructions covering a point
// are averaged, and the score is the squared error between the point and
// its averaged reconstruction. This converts the paper's sequence-level
// MSE criterion into the point-level flags the mitigation stage needs
// while preserving the thresholding semantics (scores are squared
// reconstruction errors in scaled units).
func (d *Detector) PointScores(values []float64) ([]float64, error) {
	if d == nil || d.model == nil {
		return nil, ErrNotTrained
	}
	n := len(values)
	if n < d.cfg.SeqLen {
		return nil, fmt.Errorf("%w: %d values for window %d", series.ErrTooShort, n, d.cfg.SeqLen)
	}
	nWin := n - d.cfg.SeqLen + 1
	workers := d.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nWin {
		workers = nWin
	}
	// Each worker accumulates into private buffers and owns a private
	// batch scorer; its strided share of windows is reconstructed
	// scoreBatch windows per batched forward pass, so the sweep's weight
	// panels are loaded once per batch instead of once per window.
	recons := make([][]float64, workers)
	counts := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		recons[w] = make([]float64, n)
		counts[w] = make([]float64, n)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bs := d.NewBatchScorer()
			starts := make([]int, 0, scoreBatch)
			for base := w; base < nWin; base += workers * scoreBatch {
				starts = starts[:0]
				for s := base; s < nWin && len(starts) < scoreBatch; s += workers {
					windowSeq(bs.seqs[len(starts)], values, s, d.cfg.SeqLen)
					starts = append(starts, s)
				}
				outs := d.model.PredictBatchWS(bs.seqs[:len(starts)], bs.ws)
				for i, s := range starts {
					out := outs[i]
					for k := 0; k < d.cfg.SeqLen; k++ {
						recons[w][s+k] += out[k][0]
						counts[w][s+k]++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	scores := make([]float64, n)
	for i := range scores {
		var recon, count float64
		for w := 0; w < workers; w++ {
			recon += recons[w][i]
			count += counts[w][i]
		}
		diff := values[i] - recon/count
		scores[i] = diff * diff
	}
	return scores, nil
}
