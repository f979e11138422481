package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
)

// FuzzWireRoundTrip drives both halves of the codec with fuzzer-chosen
// bytes: (a) the inbound path must survive arbitrary streams — truncated,
// oversized, garbage, or valid frames — without panicking or allocating
// attacker-sized buffers, and (b) vectors derived from the input must
// survive encode→decode under every codec with the decoder landing
// exactly on the encoder-side reconstruction.
func FuzzWireRoundTrip(f *testing.F) {
	// Seed corpus: one valid frame of each kind, plus classic breakages.
	mk := func(t MsgType, build func(b []byte) ([]byte, error)) []byte {
		var buf bytes.Buffer
		c := NewConn(pipeConn{r: bytes.NewReader(nil), w: &buf})
		if err := c.WriteFrame(t, build); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(mk(MsgHello, nil))
	f.Add(mk(MsgHelloOK, func(b []byte) ([]byte, error) {
		return AppendHelloOK(b, HelloOK{StationID: "s", ModelDim: 3, NumSamples: 4})
	}))
	f.Add(mk(MsgProbeOK, func(b []byte) ([]byte, error) {
		return AppendProbeOK(b, ProbeOK{NumSamples: 7})
	}))
	vec := []float64{0.25, -1.5, 3.75, 0}
	f.Add(mk(MsgTrain, func(b []byte) ([]byte, error) {
		b = AppendTrain(b, Train{Round: 1, Epochs: 2, BatchSize: 3, LearningRate: 1e-3, UpdateCodec: VecQ8})
		return AppendVector(b, VecQ8, vec, []float64{0, 0, 0, 0}, nil)
	}))
	f.Add(mk(MsgTrainOK, func(b []byte) ([]byte, error) {
		b, err := AppendTrainOK(b, TrainOK{StationID: "s", NumSamples: 9, TrainSeconds: 0.5, FinalLoss: 0.01})
		if err != nil {
			return nil, err
		}
		return AppendVector(b, VecF32, vec, nil, nil)
	}))
	f.Add(mk(MsgTrainPartial, func(b []byte) ([]byte, error) {
		return AppendTrainPartial(b, TrainPartial{
			NodeID: "edge-1", Kind: partialWeighted, LeafParticipants: 2, SampleSum: 60,
			Count: 2, LossSum: 0.5, Dim: 4, WeightTotal: 60,
			Hi: vec, Lo: []float64{0, 0, 0, 0},
		})
	}))
	f.Add(mk(MsgTrainPartial, func(b []byte) ([]byte, error) {
		return AppendTrainPartial(b, TrainPartial{
			NodeID: "edge-2", Kind: partialHeld, LeafParticipants: 1, SampleSum: 9,
			Count: 1, Dim: 4, Held: [][]float64{vec},
		})
	}))
	f.Add(mk(MsgError, func(b []byte) ([]byte, error) {
		return AppendError(b, ErrorMsg{Code: ErrCodeVersion, PeerVersion: 2, Text: "v2"})
	}))
	f.Add(mk(MsgScore, func(b []byte) ([]byte, error) {
		return AppendScore(b, "zone-102", vec)
	}))
	f.Add(mk(MsgScoreOK, func(b []byte) ([]byte, error) {
		return AppendScoreOK(b, []ScoreVerdict{
			{Index: 41, Flags: VerdictReady | VerdictFlagged, Epoch: 2, Score: 0.5, Mitigated: 0.25},
		})
	}))
	f.Add(mk(MsgReload, func(b []byte) ([]byte, error) {
		return AppendVector(AppendReload(b, 0.03), VecF32, vec, nil, nil)
	}))
	f.Add(mk(MsgReloadOK, func(b []byte) ([]byte, error) {
		return AppendReloadOK(b, 3)
	}))
	f.Add(mk(MsgCanaryPush, func(b []byte) ([]byte, error) {
		return AppendVector(AppendReload(b, 0.04), VecF64, vec, nil, nil)
	}))
	f.Add(mk(MsgCanaryPushOK, func(b []byte) ([]byte, error) {
		return AppendCanaryPushOK(b, 7)
	}))
	// Malicious-update shapes from the Byzantine client wire path: a
	// sign-flipped update (large negative coordinates), a scaled-poison
	// update (extreme amplification, the saturating regime), and a held
	// partial relaying a poisoned station vector through an edge.
	poison := []float64{-2.5e3, 1e9, -1e9, math.MaxFloat64 / 4}
	f.Add(mk(MsgTrainOK, func(b []byte) ([]byte, error) {
		b, err := AppendTrainOK(b, TrainOK{StationID: "byz", NumSamples: 3, TrainSeconds: 0.1, FinalLoss: 0.1})
		if err != nil {
			return nil, err
		}
		return AppendVector(b, VecF64, poison, nil, nil)
	}))
	f.Add(mk(MsgTrainOK, func(b []byte) ([]byte, error) {
		b, err := AppendTrainOK(b, TrainOK{StationID: "byz-q8", NumSamples: 3, TrainSeconds: 0.1, FinalLoss: 0.1})
		if err != nil {
			return nil, err
		}
		// Quantized poison: the q8 delta codec must clamp, not wrap.
		return AppendVector(b, VecQ8, poison, []float64{0, 0, 0, 0}, nil)
	}))
	f.Add(mk(MsgTrainPartial, func(b []byte) ([]byte, error) {
		return AppendTrainPartial(b, TrainPartial{
			NodeID: "edge-byz", Kind: partialHeld, LeafParticipants: 3, SampleSum: 27,
			Count: 3, Dim: 4, Held: [][]float64{vec, poison, {0, 0, 0, 0}},
		})
	}))
	f.Add([]byte("this is not a frame at all"))
	f.Add([]byte{magic0, magic1, Version, byte(MsgTrain), 0xff, 0xff, 0xff, 0x7f}) // lying length
	f.Add(mk(MsgHello, nil)[:5])                                                   // truncated header
	f.Add(mk(MsgProbe, nil))
	f.Add([]byte{magic0, magic1, Version + 1, byte(MsgScore), 0, 0, 0, 0}) // version skew
	// A connectionless push carrying a delta-coded vector: no reference
	// exists, so its decode must fail with ErrNoRef.
	f.Add(mk(MsgReload, func(b []byte) ([]byte, error) {
		return AppendVector(AppendReload(b, 0.03), VecQ8, vec, []float64{0, 0, 0, 0}, nil)
	}))
	// Two frames in one stream: the parse loop must carry on past the first.
	f.Add(append(mk(MsgScore, func(b []byte) ([]byte, error) {
		return AppendScore(b, "z", vec[:2])
	}), mk(MsgCanaryPushOK, func(b []byte) ([]byte, error) {
		return AppendCanaryPushOK(b, 1)
	})...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// (a) Arbitrary inbound stream: parse a bounded number of frames.
		c := NewConn(pipeConn{r: bytes.NewReader(data), w: io.Discard})
		ref := make([]float64, 0, 256)
		for range 8 {
			fr, err := c.ReadFrame()
			if err != nil {
				break
			}
			switch fr.Type {
			case MsgHelloOK:
				_, _ = ParseHelloOK(fr.Payload)
			case MsgProbeOK:
				_, _ = ParseProbeOK(fr.Payload)
			case MsgTrain:
				if _, rest, err := ParseTrain(fr.Payload); err == nil {
					// Decode with a matching all-zero reference so q8
					// payloads exercise the delta path too.
					if len(rest) >= 5 {
						n := int(binary.LittleEndian.Uint32(rest[1:5]))
						if n <= 1<<20 {
							ref = ref[:0]
							for range n {
								ref = append(ref, 0)
							}
							_, _, _ = DecodeVector(rest, nil, ref)
						}
					}
				}
			case MsgTrainOK:
				if _, rest, err := ParseTrainOK(fr.Payload); err == nil {
					_, _, _ = DecodeVector(rest, nil, nil)
				}
			case MsgTrainPartial:
				_, _ = ParseTrainPartial(fr.Payload)
			case MsgError:
				_, _ = ParseError(fr.Payload)
			case MsgScore:
				_, _, _ = ParseScore(fr.Payload, nil)
			case MsgScoreOK:
				_, _ = ParseScoreOK(fr.Payload, nil)
			case MsgReload:
				if _, rest, err := ParseReload(fr.Payload); err == nil {
					_, _, _ = DecodeVector(rest, nil, nil)
				}
			case MsgReloadOK:
				_, _ = ParseReloadOK(fr.Payload)
			case MsgCanaryPush:
				if _, rest, err := ParseReload(fr.Payload); err == nil {
					_, _, _ = DecodeVector(rest, nil, nil)
				}
			case MsgCanaryPushOK:
				_, _ = ParseCanaryPushOK(fr.Payload)
			}
		}

		// (b) Structured round trip: derive a vector from the raw bytes.
		n := len(data) / 8
		if n == 0 {
			return
		}
		if n > 6000 {
			n = 6000
		}
		v := make([]float64, n)
		refs := make([]float64, n)
		for i := range v {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = float64(i)
			}
			v[i] = x
			refs[i] = x * 0.75
		}
		for _, codec := range []VecCodec{VecF64, VecF32, VecQ8} {
			recon := make([]float64, n)
			enc, err := AppendVector(nil, codec, v, refs, recon)
			if err != nil {
				t.Fatalf("%v: encode: %v", codec, err)
			}
			if len(enc) != VectorBytes(codec, n) {
				t.Fatalf("%v: size %d, VectorBytes %d", codec, len(enc), VectorBytes(codec, n))
			}
			dec, rest, err := DecodeVector(enc, nil, refs)
			if err != nil {
				t.Fatalf("%v: decode: %v", codec, err)
			}
			if len(rest) != 0 {
				t.Fatalf("%v: %d trailing bytes", codec, len(rest))
			}
			for i := range dec {
				same := dec[i] == recon[i] ||
					(math.IsNaN(dec[i]) && math.IsNaN(recon[i]))
				if !same {
					t.Fatalf("%v: decode[%d]=%v, sender recon %v (v=%v ref=%v)",
						codec, i, dec[i], recon[i], v[i], refs[i])
				}
			}
		}
	})
}
