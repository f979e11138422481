package autoencoder

import (
	"bytes"
	"testing"

	"github.com/evfed/evfed/internal/nn"
)

// FuzzLoadCalibrated feeds arbitrary bytes to the detector file decoder,
// which reads the raw body of a service's /reload and /stage, its -model
// file and the detector inside a serving snapshot. Every input must either
// fail with an error or decode to a detector whose save → load → save
// round trip reproduces the same bytes; no input may panic.
func FuzzLoadCalibrated(f *testing.F) {
	cfg := smallConfig(7)
	cfg.SeqLen, cfg.EncoderUnits, cfg.Bottleneck = 6, 4, 2
	model, err := nn.Build(nn.AutoencoderSpec(cfg.SeqLen, cfg.EncoderUnits, cfg.Bottleneck, cfg.Dropout), cfg.Seed)
	if err != nil {
		f.Fatal(err)
	}
	det, err := FromWeights(cfg, model.WeightsVector())
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := det.SaveCalibrated(&valid, 0.25); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add(hugeModelFile(f))
	f.Add(hugeWindowFile(f))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, thr, err := LoadCalibrated(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := d.SaveCalibrated(&first, thr); err != nil {
			t.Fatalf("save of a loaded detector: %v", err)
		}
		d2, thr2, err := LoadCalibrated(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reload of a saved detector: %v", err)
		}
		if err := d2.SaveCalibrated(&second, thr2); err != nil {
			t.Fatalf("second save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save → load → save changed the file (%d → %d bytes)", first.Len(), second.Len())
		}
	})
}
