package autoencoder

import (
	"bytes"
	"encoding/gob"
	"errors"
	"runtime"
	"strings"
	"testing"

	"github.com/evfed/evfed/internal/nn"
)

func TestDetectorSaveLoadRoundTrip(t *testing.T) {
	train := dailySine(300, 0.02, 21)
	det, _, err := Train(train, smallConfig(22))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Config() != det.Config() {
		t.Fatalf("config mismatch: %+v vs %+v", loaded.Config(), det.Config())
	}
	// Scores must be identical: same weights, deterministic inference.
	test := dailySine(120, 0.02, 23)
	a, err := det.PointScores(test)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.PointScores(test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scores differ at %d after reload: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSaveUntrained(t *testing.T) {
	var det *Detector
	var buf bytes.Buffer
	if err := det.Save(&buf); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("want ErrNotTrained, got %v", err)
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a detector")); err == nil {
		t.Fatal("garbage input should error")
	}
}

func TestLoadTruncated(t *testing.T) {
	train := dailySine(200, 0.02, 24)
	det, _, err := Train(train, smallConfig(25))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated input should error")
	}
}

// craftedFile is a well-formed detector frame carrying weights for the
// given configuration.
func craftedFile(t testing.TB, cfg Config, weights []float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(detectorFile{Config: cfg, Weights: weights, Threshold: 1}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hugeWindowFile is a real small detector's file whose configuration
// names a 2⁴⁰-point window: the weight count does not depend on SeqLen,
// so only the configuration check can refuse it.
func hugeWindowFile(t testing.TB) []byte {
	t.Helper()
	cfg := smallConfig(7)
	cfg.SeqLen, cfg.EncoderUnits, cfg.Bottleneck = 6, 4, 2
	model, err := nn.Build(nn.AutoencoderSpec(cfg.SeqLen, cfg.EncoderUnits, cfg.Bottleneck, cfg.Dropout), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SeqLen = 1 << 40
	return craftedFile(t, cfg, model.WeightsVector())
}

// TestLoadRejectsBadConfig: a detector file whose configuration is out
// of range fails with ErrBadConfig before any model is built.
func TestLoadRejectsBadConfig(t *testing.T) {
	withCfg := func(edit func(*Config)) []byte {
		cfg := smallConfig(7)
		edit(&cfg)
		return craftedFile(t, cfg, nil)
	}
	cases := []struct {
		name string
		file []byte
	}{
		{"2^40-point window", hugeWindowFile(t)},
		{"window one past the cap", withCfg(func(c *Config) { c.SeqLen = maxSeqLen + 1 })},
		{"zero window", withCfg(func(c *Config) { c.SeqLen = 0 })},
		{"zero units", withCfg(func(c *Config) { c.EncoderUnits = 0 })},
	}
	for _, tc := range cases {
		if _, _, err := LoadCalibrated(bytes.NewReader(tc.file)); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s (%d-byte file): want ErrBadConfig, got %v", tc.name, len(tc.file), err)
		}
	}
}

// hugeModelFile is a well-formed detector frame whose configuration names
// a 20,000-unit encoder — a 12.8 GB recurrent kernel — while carrying
// three weights.
func hugeModelFile(t testing.TB) []byte {
	t.Helper()
	cfg := DefaultConfig()
	cfg.EncoderUnits = 20000
	return craftedFile(t, cfg, []float64{1, 2, 3})
}

// TestLoadChecksWeightCountBeforeBuild: the weight count is checked
// against the configuration's architecture before the model is built, so
// a small file cannot make the loader allocate the model it names.
func TestLoadChecksWeightCountBeforeBuild(t *testing.T) {
	file := hugeModelFile(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := LoadCalibrated(bytes.NewReader(file))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, nn.ErrShape) {
		t.Fatalf("%d-byte file naming a 20,000-unit encoder: want nn.ErrShape, got %v", len(file), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("rejecting a %d-byte file allocated %d bytes", len(file), got)
	}
}
