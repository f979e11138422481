package wire

import (
	"encoding/binary"
	"fmt"
)

// Scoring-service payloads. A MsgScore frame carries one station's batch
// of consecutive observations; the service answers with one MsgScoreOK
// frame carrying a verdict per observation, in submission order. A
// MsgReload frame carries a detection threshold plus a weight vector
// (encoded with AppendVector; delta codecs are rejected — reload frames
// are connectionless pushes with no reference state) and is answered by
// MsgReloadOK carrying the model epoch now serving. A MsgCanaryPush frame
// has the MsgReload layout (AppendReload, ParseReload) and is answered by
// MsgCanaryPushOK carrying the staging generation. All encodings are
// fixed-width, so frame sizes are exactly computable (ScoreBytes &c.).

// Verdict flag bits (ScoreVerdict.Flags).
const (
	// VerdictReady is set once the station's look-back window is full;
	// warm-up verdicts carry a zero score and are never flagged.
	VerdictReady = 1 << 0
	// VerdictFlagged is set when the score exceeded the serving threshold.
	VerdictFlagged = 1 << 1
	// VerdictCanary is set when the verdict was served live by the canary
	// candidate generation (the station is in the rollout cohort).
	VerdictCanary = 1 << 2
)

// ScoreVerdict is one observation's verdict on the wire.
type ScoreVerdict struct {
	// Index is the observation's 0-based position in the station's stream.
	Index uint64
	// Flags holds the Verdict* bits.
	Flags uint8
	// Epoch is the model epoch that scored the observation.
	Epoch uint32
	// Score is the anomaly score (squared last-point reconstruction error).
	Score float64
	// Mitigated is the value the service suggests forwarding downstream:
	// the raw observation, or its reconstruction when flagged and
	// mitigation is enabled.
	Mitigated float64
}

// scoreVerdictBytes is the fixed wire size of one encoded ScoreVerdict.
const scoreVerdictBytes = 8 + 1 + 4 + 8 + 8

// MaxScorePoints caps the observations one MsgScore frame may carry. The
// service scores a frame's points before it answers, and every other
// station on that shard waits behind them, so a frame must stay a small
// batch: 4,096 points take ≈ 0.1 s on one shard with a SeqLen-8 detector.
// The largest frame any producer in this repository sends is 100 points
// (cmd/evfedserve's smoke tests).
const MaxScorePoints = 4096

// MaxScorePayload is the largest MsgScore payload: the longest station ID
// and MaxScorePoints observations. A scoring server refuses a header
// claiming more before it reads the payload.
const MaxScorePayload = 2 + maxStringLen + 4 + 8*MaxScorePoints

// AppendScore encodes a station ID and its observation batch onto b.
func AppendScore(b []byte, station string, values []float64) ([]byte, error) {
	if len(values) > MaxScorePoints {
		return nil, fmt.Errorf("%w: %d observations in one frame, cap %d", ErrMalformed, len(values), MaxScorePoints)
	}
	b, err := appendString(b, station)
	if err != nil {
		return nil, err
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(values)))
	return appendF64s(b, values), nil
}

// ParseScore decodes a MsgScore payload, appending the observations onto
// dst[:0] (pass nil to allocate). A count over MaxScorePoints is refused
// before any observation is decoded.
func ParseScore(p []byte, dst []float64) (station string, values []float64, err error) {
	if station, p, err = parseString(p); err != nil {
		return "", nil, err
	}
	n, p, err := parseU32(p)
	if err != nil {
		return "", nil, err
	}
	if n > MaxScorePoints {
		return "", nil, fmt.Errorf("%w: %d observations in one frame, cap %d", ErrMalformed, n, MaxScorePoints)
	}
	if len(p) != 8*n {
		return "", nil, fmt.Errorf("%w: %d observation bytes for count %d", ErrMalformed, len(p), n)
	}
	dst = dst[:0]
	if cap(dst) < n {
		dst = make([]float64, 0, n)
	}
	dst = dst[:n]
	decodeF64s(dst, p)
	return station, dst, nil
}

// AppendScoreOK encodes the verdict batch onto b.
func AppendScoreOK(b []byte, verdicts []ScoreVerdict) ([]byte, error) {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(verdicts)))
	for _, v := range verdicts {
		b = binary.LittleEndian.AppendUint64(b, v.Index)
		b = append(b, v.Flags)
		b = binary.LittleEndian.AppendUint32(b, v.Epoch)
		b = binary.LittleEndian.AppendUint64(b, f64Bits(v.Score))
		b = binary.LittleEndian.AppendUint64(b, f64Bits(v.Mitigated))
	}
	return b, nil
}

// ParseScoreOK decodes a MsgScoreOK payload, appending onto dst[:0]
// (pass nil to allocate).
func ParseScoreOK(p []byte, dst []ScoreVerdict) ([]ScoreVerdict, error) {
	n, p, err := parseU32(p)
	if err != nil {
		return nil, err
	}
	if len(p) != n*scoreVerdictBytes {
		return nil, fmt.Errorf("%w: %d verdict bytes for count %d", ErrMalformed, len(p), n)
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		q := p[i*scoreVerdictBytes:]
		dst = append(dst, ScoreVerdict{
			Index:     binary.LittleEndian.Uint64(q),
			Flags:     q[8],
			Epoch:     binary.LittleEndian.Uint32(q[9:]),
			Score:     f64FromBits(binary.LittleEndian.Uint64(q[13:])),
			Mitigated: f64FromBits(binary.LittleEndian.Uint64(q[21:])),
		})
	}
	return dst, nil
}

// AppendReload encodes the reload header onto b; the caller appends the
// weight vector with AppendVector (VecF64 or VecF32 — reload pushes carry
// no delta reference) immediately after. A threshold ≤ 0 means "keep the
// service's current threshold".
func AppendReload(b []byte, threshold float64) []byte {
	return binary.LittleEndian.AppendUint64(b, f64Bits(threshold))
}

// ParseReload decodes a MsgReload payload, returning the threshold and
// the remaining bytes (the encoded weight vector).
func ParseReload(p []byte) (threshold float64, rest []byte, err error) {
	if threshold, p, err = parseF64(p); err != nil {
		return 0, nil, err
	}
	return threshold, p, nil
}

// AppendReloadOK encodes the now-serving model epoch onto b.
func AppendReloadOK(b []byte, epoch int) ([]byte, error) {
	return binary.LittleEndian.AppendUint32(b, uint32(epoch)), nil
}

// ParseReloadOK decodes a MsgReloadOK payload.
func ParseReloadOK(p []byte) (epoch int, err error) {
	epoch, _, err = parseU32(p)
	return epoch, err
}

// AppendCanaryPushOK encodes the staging generation onto b.
func AppendCanaryPushOK(b []byte, gen uint64) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(b, gen), nil
}

// ParseCanaryPushOK decodes a MsgCanaryPushOK payload.
func ParseCanaryPushOK(p []byte) (gen uint64, err error) {
	if len(p) < 8 {
		return 0, fmt.Errorf("%w: short generation", ErrMalformed)
	}
	return binary.LittleEndian.Uint64(p), nil
}

// ScoreBytes is the size of a MsgScore frame carrying n observations for
// a station-ID length.
func ScoreBytes(idLen, n int) int { return HeaderBytes + 2 + idLen + 4 + 8*n }

// ScoreOKBytes is the size of a MsgScoreOK frame carrying n verdicts.
func ScoreOKBytes(n int) int { return HeaderBytes + 4 + n*scoreVerdictBytes }

// ReloadBytes is the size of a MsgReload frame whose n-dim weight vector
// is encoded with codec.
func ReloadBytes(codec VecCodec, n int) int {
	return HeaderBytes + 8 + VectorBytes(codec, n)
}

// ReloadOKBytes is the size of a MsgReloadOK frame.
func ReloadOKBytes() int { return HeaderBytes + 4 }

// CanaryPushOKBytes is the size of a MsgCanaryPushOK frame.
func CanaryPushOKBytes() int { return HeaderBytes + 8 }
