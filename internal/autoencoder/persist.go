package autoencoder

import (
	"encoding/gob"
	"fmt"
	"io"

	"github.com/evfed/evfed/internal/nn"
)

// detectorFile is the single gob frame holding everything needed to
// reconstruct a trained detector. (One frame, not a header followed by a
// second stream: gob decoders read ahead, so two consecutive streams on
// one reader would corrupt each other.) Threshold is optional — files
// written before calibration persistence decode it as zero.
type detectorFile struct {
	Config    Config
	Weights   []float64
	Threshold float64
}

// FromWeights rebuilds a trained detector from its configuration and a
// flat weight vector — the hot-reload primitive: a serving deployment
// receives freshly federated weights and constructs a complete
// copy-on-write detector around them without touching the one currently
// scoring traffic. The weights are copied, so the caller may reuse its
// buffer. The weight count is checked against the configuration's
// architecture before anything is built, so a configuration naming a huge
// model costs nothing unless the weights to fill it are really there; a
// mismatch is an error wrapping nn.ErrShape.
func FromWeights(cfg Config, weights []float64) (*Detector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	spec := nn.AutoencoderSpec(cfg.SeqLen, cfg.EncoderUnits, cfg.Bottleneck, cfg.Dropout)
	if n, ok := spec.NumParams(); !ok || n != len(weights) {
		return nil, fmt.Errorf("%w: %d weights for a %d/%d-unit autoencoder",
			nn.ErrShape, len(weights), cfg.EncoderUnits, cfg.Bottleneck)
	}
	model, err := nn.Build(spec, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("autoencoder: rebuild model: %w", err)
	}
	w := make([]float64, len(weights))
	copy(w, weights)
	if err := model.SetWeightsVector(w); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, model: model}, nil
}

// Save persists the detector (configuration + trained weights) so a
// station can reload it without retraining.
func (d *Detector) Save(w io.Writer) error {
	return d.SaveCalibrated(w, 0)
}

// SaveCalibrated persists the detector together with its calibrated
// detection threshold, so a scoring service can load both in one file
// (evfeddetect -save-model writes this form).
func (d *Detector) SaveCalibrated(w io.Writer, threshold float64) error {
	if d == nil || d.model == nil {
		return ErrNotTrained
	}
	f := detectorFile{Config: d.cfg, Weights: d.model.WeightsVector(), Threshold: threshold}
	if err := gob.NewEncoder(w).Encode(f); err != nil {
		return fmt.Errorf("autoencoder: encode detector: %w", err)
	}
	return nil
}

// Load restores a detector previously written by Save.
func Load(r io.Reader) (*Detector, error) {
	d, _, err := LoadCalibrated(r)
	return d, err
}

// LoadCalibrated restores a detector plus its persisted detection
// threshold (zero for files written by plain Save or by builds predating
// calibration persistence).
func LoadCalibrated(r io.Reader) (*Detector, float64, error) {
	var f detectorFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, 0, fmt.Errorf("autoencoder: decode detector: %w", err)
	}
	d, err := FromWeights(f.Config, f.Weights)
	if err != nil {
		return nil, 0, err
	}
	return d, f.Threshold, nil
}
