// Package fed implements the paper's federated learning runtime: local
// LSTM clients that train on private data, a FedAvg coordinator that
// aggregates weight vectors across rounds (weighted by sample count), and
// pluggable transports — in-process handles for deterministic experiments
// and a binary TCP transport (internal/fed/wire) for genuinely
// distributed deployments, with optional update compression (float32
// downcast or int8 delta quantization) selected by Codec.
//
// Privacy property (paper §I): only model parameter vectors cross the
// client boundary; raw charging data never leaves the client.
//
// Hyperparameters mirror the paper: FEDERATED_ROUNDS = 5,
// EPOCHS_PER_ROUND = 10, LSTM_UNITS = 50, LEARNING_RATE = 0.001,
// batch 32, SEQUENCE_LENGTH = 24.
package fed

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/evfed/evfed/internal/fed/wire"
	"github.com/evfed/evfed/internal/nn"
	"github.com/evfed/evfed/internal/rng"
	"github.com/evfed/evfed/internal/series"
)

// Errors returned by the package.
var (
	ErrBadConfig     = errors.New("fed: invalid configuration")
	ErrNoClients     = errors.New("fed: no clients")
	ErrAllDropped    = errors.New("fed: every client dropped out of a round")
	ErrRoundDeadline = errors.New("fed: round deadline exceeded")
	ErrDimMismatch   = errors.New("fed: station model dimension mismatch")
)

// Codec selects the compression applied to weight vectors crossing the
// federation boundary. Compression trades a bounded, measured amount of
// accuracy for a large cut in per-round traffic — the binding constraint
// for stations on thin uplinks.
type Codec uint8

// Supported codecs, ordered by compression level.
const (
	// CodecNone ships full float64 vectors (8 bytes/parameter).
	CodecNone Codec = iota
	// CodecF32 downcasts both directions to float32 (4 bytes/parameter,
	// ~1e-7 relative rounding error).
	CodecF32
	// CodecQ8 int8-quantizes weight *deltas* (1 byte/parameter): uplink
	// deltas are taken against the round's broadcast global; downlink
	// broadcasts are delta-coded against the previous broadcast once a
	// connection has one (the first broadcast on a connection falls back
	// to float32). Per-coordinate error is bounded by maxabs(delta)/254
	// per 4096-value chunk.
	CodecQ8
)

// ParseCodec maps a flag string to a Codec: "none" (or "f64"), "f32", "q8".
func ParseCodec(s string) (Codec, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none", "f64", "float64":
		return CodecNone, nil
	case "f32", "float32":
		return CodecF32, nil
	case "q8", "int8":
		return CodecQ8, nil
	}
	return 0, fmt.Errorf("%w: unknown codec %q (want none, f32 or q8)", ErrBadConfig, s)
}

// String names the codec as ParseCodec accepts it.
func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecF32:
		return "f32"
	case CodecQ8:
		return "q8"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

func (c Codec) validate() error {
	if c > CodecQ8 {
		return fmt.Errorf("%w: codec %d", ErrBadConfig, c)
	}
	return nil
}

// upVec is the wire encoding of a client update under this codec.
func (c Codec) upVec() wire.VecCodec {
	switch c {
	case CodecF32:
		return wire.VecF32
	case CodecQ8:
		return wire.VecQ8
	default:
		return wire.VecF64
	}
}

// downVec is the wire encoding of a broadcast under this codec, given
// whether the connection already holds a delta reference.
func (c Codec) downVec(haveRef bool) wire.VecCodec {
	switch c {
	case CodecF32:
		return wire.VecF32
	case CodecQ8:
		if haveRef {
			return wire.VecQ8
		}
		return wire.VecF32
	default:
		return wire.VecF64
	}
}

// maxVecCodec returns the more compressed of two wire encodings (the
// VecCodec constants are ordered by compression level).
func maxVecCodec(a, b wire.VecCodec) wire.VecCodec {
	if b > a {
		return b
	}
	return a
}

// Update is one client's contribution to a round.
type Update struct {
	// ClientID identifies the sender.
	ClientID string
	// Weights is the locally trained weight vector.
	Weights []float64
	// NumSamples weights the FedAvg average.
	NumSamples int
	// TrainSeconds is the client-reported local training time.
	TrainSeconds float64
	// FinalLoss is the client's last local training loss.
	FinalLoss float64
}

// LocalTrainConfig is what the coordinator sends to a client each round.
type LocalTrainConfig struct {
	// Epochs is the number of local epochs (paper: 10).
	Epochs int
	// BatchSize is the minibatch size (paper: 32).
	BatchSize int
	// LearningRate feeds the client's Adam optimizer (paper: 1e-3).
	LearningRate float64
	// Workers bounds parallel gradient workers on the client.
	Workers int
	// Round is the 0-based round index (seeds per-round shuffling).
	Round int
	// Privacy optionally privatizes the update delta before it leaves the
	// client (clip + Gaussian noise). Zero value disables it.
	Privacy Privacy
	// ProximalMu enables FedProx local training: the local objective gains
	// μ/2·‖w − w_global‖², pulling each client's solution toward the
	// broadcast global model. This is the standard remedy for client
	// drift on heterogeneous (non-IID) data — exactly the spatial
	// heterogeneity regime of the paper's zones. 0 = plain FedAvg.
	ProximalMu float64
	// Codec selects the wire compression for weight exchange. The TCP
	// transport encodes with it for real; in-process clients apply the
	// identical value round trip (downlink float32 reference, uplink
	// downcast or delta quantization), so accuracy parity between codecs
	// is measurable without a network.
	Codec Codec
	// PartialKind tells aggregation-node clients (edges) which partial
	// form the parent's aggregation rule folds. Leaf stations ignore it.
	PartialKind PartialKind
}

// ClientHandle abstracts how the coordinator reaches a client: in-process
// or over the network.
type ClientHandle interface {
	// ID returns a stable client identifier.
	ID() string
	// NumSamples reports the client's training-set size (for weighting).
	NumSamples() (int, error)
	// Train installs the global weights, runs local training and returns
	// the client's update.
	Train(global []float64, cfg LocalTrainConfig) (Update, error)
}

// Client is the in-process client implementation: it owns a private
// training set and a local model built from the shared spec.
type Client struct {
	id string
	// mu serializes Train calls: the local model is stateful, and a
	// coordinator retry or abandoned straggler call can overlap a live
	// round's call (each ClientServer connection gets its own handler
	// goroutine). Queued calls each install their own broadcast weights,
	// so every call still returns a self-consistent update.
	mu      sync.Mutex
	model   *nn.Model
	inputs  []nn.Seq
	targets []nn.Seq
	seed    uint64
	// simRef is the reusable downlink-reconstruction buffer for codec
	// simulation (see LocalTrainConfig.Codec).
	simRef []float64
	// trainer, adam and proxRef carry the local fit's buffers from round
	// to round; each Train resets them, so rounds stay bit-identical to
	// fresh fits.
	trainer nn.Trainer
	adam    *nn.Adam
	proxRef []float64
}

var _ ClientHandle = (*Client)(nil)
var _ Prober = (*Client)(nil)

// NewClient builds an in-process client from scaled series values. seqLen
// windowing happens here so the raw series never leaves the client
// boundary in any form.
func NewClient(id string, spec nn.Spec, values []float64, seqLen int, seed uint64) (*Client, error) {
	ws, err := series.MakeWindows(values, seqLen)
	if err != nil {
		return nil, fmt.Errorf("fed: client %s: %w", id, err)
	}
	model, err := nn.Build(spec, seed)
	if err != nil {
		return nil, fmt.Errorf("fed: client %s: %w", id, err)
	}
	c := &Client{id: id, model: model, seed: seed}
	for _, w := range ws {
		c.inputs = append(c.inputs, w.Input)
		c.targets = append(c.targets, nn.Seq{{w.Target}})
	}
	return c, nil
}

// NewReconstructionClient builds an in-process client whose local
// objective is sequence reconstruction (targets = inputs) — federated
// training of the paper's LSTM-autoencoder detector rather than the
// forecaster. Pair spec with nn.AutoencoderSpec(seqLen, ...). A
// coordinator running over reconstruction clients plus Config.OnRound
// gives the full serving loop: each round's aggregated detector weights
// hot-reload into a live scoring service.
func NewReconstructionClient(id string, spec nn.Spec, values []float64, seqLen int, seed uint64) (*Client, error) {
	seqs, err := series.MakeSequences(values, seqLen, 1)
	if err != nil {
		return nil, fmt.Errorf("fed: client %s: %w", id, err)
	}
	model, err := nn.Build(spec, seed)
	if err != nil {
		return nil, fmt.Errorf("fed: client %s: %w", id, err)
	}
	c := &Client{id: id, model: model, seed: seed}
	for _, s := range seqs {
		c.inputs = append(c.inputs, nn.Seq(s))
		c.targets = append(c.targets, nn.Seq(s))
	}
	return c, nil
}

// ID implements ClientHandle.
func (c *Client) ID() string { return c.id }

// NumSamples implements ClientHandle.
func (c *Client) NumSamples() (int, error) { return len(c.inputs), nil }

// Hello implements Prober: an in-process client reports its identity and
// model dimension directly, so the coordinator's pre-round compatibility
// check covers local and remote clients alike.
func (c *Client) Hello() (HelloInfo, error) {
	return HelloInfo{
		StationID:  c.id,
		ModelDim:   c.model.NumParams(),
		NumSamples: len(c.inputs),
	}, nil
}

// Train implements ClientHandle. With a compression codec configured it
// simulates the wire's exact value transformations: the installed global
// passes through the float32 downlink reconstruction and the returned
// update through the uplink downcast (CodecF32) or delta quantization
// against the reconstructed broadcast (CodecQ8) — the same arithmetic the
// TCP transport performs, so in-process accuracy measurements transfer.
// (A TCP deployment's steady-state downlink additionally delta-codes
// broadcasts against the previous round's, whose error is bounded the
// same way; see DESIGN.md §8.)
func (c *Client) Train(global []float64, cfg LocalTrainConfig) (Update, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := cfg.Codec.validate(); err != nil {
		return Update{}, fmt.Errorf("fed: client %s: %w", c.id, err)
	}
	ref := global
	if cfg.Codec != CodecNone {
		if cap(c.simRef) < len(global) {
			c.simRef = make([]float64, len(global))
		}
		c.simRef = c.simRef[:len(global)]
		copy(c.simRef, global)
		wire.RoundTripF32(c.simRef)
		ref = c.simRef
	}
	if err := c.model.SetWeightsVector(ref); err != nil {
		return Update{}, fmt.Errorf("fed: client %s: install global weights: %w", c.id, err)
	}
	if c.adam == nil {
		c.adam = nn.NewAdam(cfg.LearningRate)
	}
	c.adam.LR = cfg.LearningRate
	c.adam.Reset()
	tc := nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: cfg.BatchSize,
		Optimizer: c.adam,
		Loss:      nn.MSE{},
		Shuffle:   true,
		Seed:      c.seed + uint64(cfg.Round)*1000003,
		ClipNorm:  5,
		Workers:   cfg.Workers,
	}
	if cfg.ProximalMu > 0 {
		tc.ProxMu = cfg.ProximalMu
		c.proxRef = append(c.proxRef[:0], ref...)
		tc.ProxRef = c.proxRef
	}
	start := time.Now()
	hist, err := c.trainer.Fit(c.model, c.inputs, c.targets, tc)
	if err != nil {
		return Update{}, fmt.Errorf("fed: client %s: local fit: %w", c.id, err)
	}
	weights := c.model.WeightsVector()
	if cfg.Privacy.Enabled() {
		privRNG := rng.New(c.seed ^ (uint64(cfg.Round+1) * 0x9e3779b97f4a7c15) ^ 0xd9)
		if err := cfg.Privacy.privatize(weights, ref, privRNG); err != nil {
			return Update{}, fmt.Errorf("fed: client %s: privatize: %w", c.id, err)
		}
	}
	// Simulate the uplink leg of the wire codec.
	switch cfg.Codec {
	case CodecF32:
		wire.RoundTripF32(weights)
	case CodecQ8:
		if err := wire.RoundTripQ8(weights, ref); err != nil {
			return Update{}, fmt.Errorf("fed: client %s: quantize update: %w", c.id, err)
		}
	}
	return Update{
		ClientID:     c.id,
		Weights:      weights,
		NumSamples:   len(c.inputs),
		TrainSeconds: time.Since(start).Seconds(),
		FinalLoss:    hist.FinalTrainLoss(),
	}, nil
}

// Model exposes the client's local model (e.g. to evaluate local
// specialization).
func (c *Client) Model() *nn.Model { return c.model }

// FedAvg computes the sample-weighted average of the updates' weight
// vectors — McMahan et al.'s Federated Averaging, the paper's aggregation
// rule.
func FedAvg(updates []Update) ([]float64, error) {
	if len(updates) == 0 {
		return nil, ErrNoClients
	}
	dim := len(updates[0].Weights)
	total := 0
	for _, u := range updates {
		if len(u.Weights) != dim {
			return nil, fmt.Errorf("%w: client %s weight dim %d != %d",
				ErrBadConfig, u.ClientID, len(u.Weights), dim)
		}
		if u.NumSamples <= 0 {
			return nil, fmt.Errorf("%w: client %s reports %d samples",
				ErrBadConfig, u.ClientID, u.NumSamples)
		}
		total += u.NumSamples
	}
	out := make([]float64, dim)
	for _, u := range updates {
		w := float64(u.NumSamples) / float64(total)
		for i, v := range u.Weights {
			out[i] += w * v
		}
	}
	return out, nil
}
