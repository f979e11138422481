// Package wire implements the federation's binary wire protocol: length-
// prefixed little-endian frames with bulk-copied float payloads, replacing
// the reflection-driven gob streams of earlier revisions. One frame is
//
//	magic   [2]byte  'E','V'
//	version uint8    protocol revision (Version)
//	type    uint8    message kind (MsgType)
//	length  uint32   payload bytes, little-endian
//	payload [length]byte
//
// The 8-byte header layout is frozen across protocol revisions so any peer
// can always read far enough to discover a version mismatch and answer
// with a typed MsgError frame instead of hanging — that reply is the
// version negotiation performed during the Hello handshake. A peer whose
// first bytes fail the magic check (for example a legacy gob speaker) is
// rejected with ErrBadMagic before any payload is read.
//
// Vector payloads are self-describing (a leading VecCodec byte), so a
// response may be more compressed than the request asked for; see codec.go
// for the float64/float32/int8-delta encodings.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// Protocol constants.
const (
	magic0 = 'E'
	magic1 = 'V'

	// Version is the protocol revision this build speaks. Frames carrying
	// any other version are answered with an ErrCodeVersion MsgError.
	Version = 1

	// HeaderBytes is the fixed frame-header size.
	HeaderBytes = 8

	// MaxFrameBytes bounds a single frame's payload; a header claiming
	// more is rejected before any payload allocation. The paper-scale
	// model (~12k parameters, ~96 KiB raw) sits four orders of magnitude
	// below it.
	MaxFrameBytes = 1 << 28
)

// MsgType identifies a frame's message kind.
type MsgType uint8

// Message kinds. Requests flow coordinator → station, the *OK responses
// and MsgError flow back.
const (
	MsgHello   MsgType = 1 // identity/compatibility handshake request (empty payload)
	MsgHelloOK MsgType = 2
	MsgProbe   MsgType = 3 // sample-count query (empty payload)
	MsgProbeOK MsgType = 4
	MsgTrain   MsgType = 5
	MsgTrainOK MsgType = 6
	MsgError   MsgType = 7
)

// Scoring-service kinds (see serve.go). MsgScore flows producer →
// scoring service; MsgReload (hot reload, cmd/evfedcoord -serve-reload)
// and MsgCanaryPush (stage a canary candidate for shadow scoring instead
// of swapping it live, -serve-canary) are the federated coordinator's
// post-round pushes. The *OK responses flow back. Operator control of a
// rollout (promote, rollback, status) is the service's HTTP control
// plane, not frames.
const (
	MsgScore        MsgType = 8  // one station's batch of observations
	MsgScoreOK      MsgType = 9  // per-observation verdicts
	MsgReload       MsgType = 10 // hot model reload: threshold + weight vector
	MsgReloadOK     MsgType = 11
	MsgCanaryPush   MsgType = 12 // stage candidate: same payload as MsgReload
	MsgCanaryPushOK MsgType = 13 // staging generation
)

// Types 14–17 carried wire canary status and operator overrides in
// earlier builds. They are retired, not reused: a scoring service
// answers them with ErrCodeBadRequest like any unknown type.

// Hierarchical-federation kinds. MsgTrainPartial is an aggregation node's
// answer to MsgTrain: instead of one station's update it carries the
// node's partial aggregate over its own downstream round (see
// AppendTrainPartial for the layout). Requests still use MsgTrain — the
// parent does not need to know in advance whether a peer is a station or
// an edge.
const (
	MsgTrainPartial MsgType = 18
)

// Peer roles carried in HelloOK, so a parent discovers at handshake time
// whether a peer answers MsgTrain with MsgTrainOK (a leaf station) or
// MsgTrainPartial (an aggregation node fronting its own subtree).
const (
	RoleStation   uint8 = 0
	RoleAggregate uint8 = 1
)

// Typed protocol errors.
var (
	// ErrBadMagic marks a stream that is not this binary protocol at all
	// (e.g. a legacy gob peer).
	ErrBadMagic = errors.New("wire: not an evfed binary protocol stream")
	// ErrVersion marks a protocol-revision mismatch between peers.
	ErrVersion = errors.New("wire: protocol version mismatch")
	// ErrFrameTooLarge marks a frame header claiming more than MaxFrameBytes.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrTruncated marks a frame cut off mid-payload.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrMalformed marks a payload that does not parse as its message kind.
	ErrMalformed = errors.New("wire: malformed payload")
	// ErrNoRef marks a delta-coded vector without its reference vector.
	ErrNoRef = errors.New("wire: delta-coded vector without reference")
)

// ErrCode classifies a MsgError frame.
type ErrCode uint8

// MsgError codes.
const (
	// ErrCodeApp carries an application error reported by the station
	// (local training failure, dimension mismatch, ...).
	ErrCodeApp ErrCode = 1
	// ErrCodeVersion reports a protocol-revision mismatch; PeerVersion
	// carries the responder's revision.
	ErrCodeVersion ErrCode = 2
	// ErrCodeBadRequest reports an unparseable or unexpected request.
	ErrCodeBadRequest ErrCode = 3
	// ErrCodeNoDeltaRef reports a delta-coded broadcast on a connection
	// that holds no reference vector (coordinator/station state skew; the
	// cure is a fresh connection, which resets both ends to full frames).
	ErrCodeNoDeltaRef ErrCode = 4
)

// Frame is one decoded frame. Payload aliases the connection's reusable
// read buffer and is only valid until the next ReadFrame call.
type Frame struct {
	Version uint8
	Type    MsgType
	Payload []byte
}

// Conn frames messages over a byte stream. It owns reusable read/write
// buffers, so steady-state frame exchange performs no per-call allocation
// beyond what the caller's payload builders append. A Conn must not be
// used concurrently.
type Conn struct {
	br      *bufio.Reader
	w       io.Writer
	hdr     [HeaderBytes]byte // reused header scratch (a stack buffer would escape through io.ReadFull)
	out     []byte
	payload []byte

	// A Server's connections arm a fresh deadline of timeout before every
	// frame read and write (0 = none).
	nc      net.Conn
	timeout time.Duration
}

// NewConn wraps rw (typically a net.Conn) for frame exchange.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{br: bufio.NewReaderSize(rw, 32<<10), w: rw}
}

// ReadFrame reads one frame. io.EOF is returned untouched on a clean
// close before any header byte; all other failures are typed. The frame's
// payload buffer is reused by the next ReadFrame.
func (c *Conn) ReadFrame() (Frame, error) { return c.readFrame(nil) }

// readFrame is ReadFrame with a per-type cap on a current-revision
// frame's payload, checked before any payload byte is read. Another
// revision's types may mean something else, so its frames are held only
// to MaxFrameBytes, and the peer can still be told which revision this is.
func (c *Conn) readFrame(maxPayload func(MsgType) int) (Frame, error) {
	if c.timeout > 0 {
		_ = c.nc.SetReadDeadline(time.Now().Add(c.timeout))
	}
	hdr := c.hdr[:]
	if _, err := io.ReadFull(c.br, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Frame{}, fmt.Errorf("%w: partial header", ErrTruncated)
		}
		return Frame{}, err
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return Frame{}, ErrBadMagic
	}
	size := int(binary.LittleEndian.Uint32(hdr[4:8]))
	limit := MaxFrameBytes
	if maxPayload != nil && hdr[2] == Version {
		limit = min(limit, maxPayload(MsgType(hdr[3])))
	}
	if size > limit {
		return Frame{}, fmt.Errorf("%w: %d-byte payload for type %d, cap %d", ErrFrameTooLarge, size, hdr[3], limit)
	}
	// The payload is read in bounded chunks so a lying length field makes
	// the read fail after the bytes actually sent, instead of forcing one
	// attacker-sized upfront allocation.
	c.payload = c.payload[:0]
	for remaining := size; remaining > 0; {
		chunk := remaining
		if chunk > 64<<10 {
			chunk = 64 << 10
		}
		start := len(c.payload)
		if cap(c.payload) < start+chunk {
			c.payload = append(c.payload, make([]byte, chunk)...)
		} else {
			c.payload = c.payload[:start+chunk]
		}
		if _, err := io.ReadFull(c.br, c.payload[start:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return Frame{}, fmt.Errorf("%w: got %d of %d payload bytes",
					ErrTruncated, start, size)
			}
			return Frame{}, err
		}
		remaining -= chunk
	}
	return Frame{Version: hdr[2], Type: MsgType(hdr[3]), Payload: c.payload}, nil
}

// WriteFrame assembles header plus the payload produced by build (which
// appends to the passed buffer) and writes the frame in a single Write
// call. build may be nil for empty-payload messages.
func (c *Conn) WriteFrame(t MsgType, build func(b []byte) ([]byte, error)) error {
	if c.timeout > 0 {
		_ = c.nc.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	b := append(c.out[:0], magic0, magic1, Version, byte(t), 0, 0, 0, 0)
	if build != nil {
		var err error
		if b, err = build(b); err != nil {
			return err
		}
	}
	c.out = b
	n := len(b) - HeaderBytes
	if n > MaxFrameBytes {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.LittleEndian.PutUint32(b[4:8], uint32(n))
	_, err := c.w.Write(b)
	return err
}

// WriteError writes a MsgError frame of code and text, stamped with this
// end's protocol revision. A caller that closes the connection next may
// drop the error: a failed refusal leaves nothing else to do.
func (c *Conn) WriteError(code ErrCode, text string) error {
	return c.WriteFrame(MsgError, func(b []byte) ([]byte, error) {
		return AppendError(b, ErrorMsg{Code: code, PeerVersion: Version, Text: text})
	})
}

// Reply answers a request with a frame of type t built by build or, if
// the request failed with the application error err, with an ErrCodeApp
// MsgError. It reports whether the write succeeded, which is whether a
// Handler should keep the connection.
func (c *Conn) Reply(err error, t MsgType, build func(b []byte) ([]byte, error)) bool {
	if err != nil {
		return c.WriteError(ErrCodeApp, err.Error()) == nil
	}
	return c.WriteFrame(t, build) == nil
}

// ---- message payloads ----

// HelloOK is the peer's answer to the identity handshake.
type HelloOK struct {
	StationID  string
	ModelDim   int
	NumSamples int
	// Role distinguishes leaf stations (RoleStation) from aggregation
	// nodes (RoleAggregate). The byte is a trailing addition to the v1
	// payload: v1 peers that omit it parse as RoleStation, so flat
	// deployments interoperate unchanged.
	Role uint8
}

// ProbeOK answers a sample-count probe.
type ProbeOK struct {
	NumSamples int
}

// Train carries one local-training call's hyperparameters; the broadcast
// weight vector follows the fixed fields (see AppendVector).
type Train struct {
	Round        int
	Epochs       int
	BatchSize    int
	Workers      int
	LearningRate float64
	ProximalMu   float64
	PrivacyClip  float64
	PrivacyNoise float64
	// UpdateCodec is the uplink compression the coordinator asks the
	// station to apply to its update (the station may answer with a more
	// compressed codec; vector payloads are self-describing).
	UpdateCodec VecCodec
	// PartialKind tells aggregation nodes which partial form the root's
	// aggregation rule folds (see the fed package's PartialKind). Leaf
	// stations ignore it.
	PartialKind uint8
}

// TrainOK carries the station's update metadata; the encoded update
// vector follows the fixed fields.
type TrainOK struct {
	StationID    string
	NumSamples   int
	TrainSeconds float64
	FinalLoss    float64
}

// ErrorMsg is a typed failure report.
type ErrorMsg struct {
	Code ErrCode
	// PeerVersion is the responder's protocol revision (version
	// negotiation: meaningful for ErrCodeVersion).
	PeerVersion uint8
	Text        string
}

const maxStringLen = 1<<16 - 1

func appendString(b []byte, s string) ([]byte, error) {
	if len(s) > maxStringLen {
		return nil, fmt.Errorf("%w: string of %d bytes", ErrMalformed, len(s))
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...), nil
}

func parseString(p []byte) (string, []byte, error) {
	if len(p) < 2 {
		return "", nil, fmt.Errorf("%w: short string header", ErrMalformed)
	}
	n := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	if len(p) < n {
		return "", nil, fmt.Errorf("%w: string wants %d bytes, payload has %d", ErrMalformed, n, len(p))
	}
	return string(p[:n]), p[n:], nil
}

func parseU32(p []byte) (int, []byte, error) {
	if len(p) < 4 {
		return 0, nil, fmt.Errorf("%w: short uint32", ErrMalformed)
	}
	return int(binary.LittleEndian.Uint32(p)), p[4:], nil
}

func parseF64(p []byte) (float64, []byte, error) {
	if len(p) < 8 {
		return 0, nil, fmt.Errorf("%w: short float64", ErrMalformed)
	}
	return f64FromBits(binary.LittleEndian.Uint64(p)), p[8:], nil
}

// AppendHelloOK encodes h onto b.
func AppendHelloOK(b []byte, h HelloOK) ([]byte, error) {
	b, err := appendString(b, h.StationID)
	if err != nil {
		return nil, err
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(h.ModelDim))
	b = binary.LittleEndian.AppendUint32(b, uint32(h.NumSamples))
	return append(b, h.Role), nil
}

// ParseHelloOK decodes a MsgHelloOK payload.
func ParseHelloOK(p []byte) (HelloOK, error) {
	var h HelloOK
	var err error
	if h.StationID, p, err = parseString(p); err != nil {
		return h, err
	}
	if h.ModelDim, p, err = parseU32(p); err != nil {
		return h, err
	}
	if h.NumSamples, p, err = parseU32(p); err != nil {
		return h, err
	}
	// Trailing role byte: absent from pre-hierarchy payloads, which makes
	// those peers leaf stations.
	if len(p) > 0 {
		h.Role = p[0]
	}
	return h, nil
}

// AppendProbeOK encodes pr onto b.
func AppendProbeOK(b []byte, pr ProbeOK) ([]byte, error) {
	return binary.LittleEndian.AppendUint32(b, uint32(pr.NumSamples)), nil
}

// ParseProbeOK decodes a MsgProbeOK payload.
func ParseProbeOK(p []byte) (ProbeOK, error) {
	n, _, err := parseU32(p)
	return ProbeOK{NumSamples: n}, err
}

// AppendTrain encodes t's fixed fields onto b; the caller appends the
// broadcast vector with AppendVector immediately after.
func AppendTrain(b []byte, t Train) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(t.Round))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.Epochs))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.BatchSize))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.Workers))
	b = binary.LittleEndian.AppendUint64(b, f64Bits(t.LearningRate))
	b = binary.LittleEndian.AppendUint64(b, f64Bits(t.ProximalMu))
	b = binary.LittleEndian.AppendUint64(b, f64Bits(t.PrivacyClip))
	b = binary.LittleEndian.AppendUint64(b, f64Bits(t.PrivacyNoise))
	return append(b, byte(t.UpdateCodec), t.PartialKind)
}

// ParseTrain decodes a MsgTrain payload, returning the fixed fields and
// the remaining bytes (the encoded broadcast vector).
func ParseTrain(p []byte) (Train, []byte, error) {
	var t Train
	var err error
	if t.Round, p, err = parseU32(p); err != nil {
		return t, nil, err
	}
	if t.Epochs, p, err = parseU32(p); err != nil {
		return t, nil, err
	}
	if t.BatchSize, p, err = parseU32(p); err != nil {
		return t, nil, err
	}
	if t.Workers, p, err = parseU32(p); err != nil {
		return t, nil, err
	}
	if t.LearningRate, p, err = parseF64(p); err != nil {
		return t, nil, err
	}
	if t.ProximalMu, p, err = parseF64(p); err != nil {
		return t, nil, err
	}
	if t.PrivacyClip, p, err = parseF64(p); err != nil {
		return t, nil, err
	}
	if t.PrivacyNoise, p, err = parseF64(p); err != nil {
		return t, nil, err
	}
	if len(p) < 2 {
		return t, nil, fmt.Errorf("%w: missing update codec / partial kind", ErrMalformed)
	}
	t.UpdateCodec = VecCodec(p[0])
	if t.UpdateCodec > VecQ8 {
		return t, nil, fmt.Errorf("%w: unknown update codec %d", ErrMalformed, t.UpdateCodec)
	}
	t.PartialKind = p[1]
	if t.PartialKind > partialKindMax {
		return t, nil, fmt.Errorf("%w: unknown partial kind %d", ErrMalformed, t.PartialKind)
	}
	return t, p[2:], nil
}

// trainMetaBytes is the fixed-field size of a Train payload.
const trainMetaBytes = 4*4 + 4*8 + 2

// AppendTrainOK encodes t's fixed fields onto b; the caller appends the
// update vector with AppendVector immediately after.
func AppendTrainOK(b []byte, t TrainOK) ([]byte, error) {
	b, err := appendString(b, t.StationID)
	if err != nil {
		return nil, err
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(t.NumSamples))
	b = binary.LittleEndian.AppendUint64(b, f64Bits(t.TrainSeconds))
	b = binary.LittleEndian.AppendUint64(b, f64Bits(t.FinalLoss))
	return b, nil
}

// ParseTrainOK decodes a MsgTrainOK payload, returning the fixed fields
// and the remaining bytes (the encoded update vector).
func ParseTrainOK(p []byte) (TrainOK, []byte, error) {
	var t TrainOK
	var err error
	if t.StationID, p, err = parseString(p); err != nil {
		return t, nil, err
	}
	if t.NumSamples, p, err = parseU32(p); err != nil {
		return t, nil, err
	}
	if t.TrainSeconds, p, err = parseF64(p); err != nil {
		return t, nil, err
	}
	if t.FinalLoss, p, err = parseF64(p); err != nil {
		return t, nil, err
	}
	return t, p, nil
}

// AppendError encodes e onto b.
func AppendError(b []byte, e ErrorMsg) ([]byte, error) {
	b = append(b, byte(e.Code), e.PeerVersion)
	return appendString(b, e.Text)
}

// ParseError decodes a MsgError payload.
func ParseError(p []byte) (ErrorMsg, error) {
	if len(p) < 2 {
		return ErrorMsg{}, fmt.Errorf("%w: short error frame", ErrMalformed)
	}
	e := ErrorMsg{Code: ErrCode(p[0]), PeerVersion: p[1]}
	var err error
	e.Text, _, err = parseString(p[2:])
	return e, err
}

// ---- exact frame-size accounting ----
//
// The encodings are fixed-width, so wire cost is computable without
// encoding; the sizes below include the frame header and are verified
// against real encodes in tests. The coordinator uses them to report
// bytes-per-round for in-process federations under the same codec policy
// a TCP deployment would pay.

// HelloBytes is the size of a Hello request frame.
func HelloBytes() int { return HeaderBytes }

// HelloOKBytes is the size of a HelloOK frame for a station-ID length.
func HelloOKBytes(idLen int) int { return HeaderBytes + 2 + idLen + 8 + 1 }

// ProbeBytes is the size of a Probe request frame.
func ProbeBytes() int { return HeaderBytes }

// ProbeOKBytes is the size of a ProbeOK frame.
func ProbeOKBytes() int { return HeaderBytes + 4 }

// TrainBytes is the size of a Train frame whose n-dim broadcast vector is
// encoded with codec.
func TrainBytes(codec VecCodec, n int) int {
	return HeaderBytes + trainMetaBytes + VectorBytes(codec, n)
}

// TrainOKBytes is the size of a TrainOK frame whose n-dim update vector
// is encoded with codec, for a station-ID length.
func TrainOKBytes(codec VecCodec, n, idLen int) int {
	return HeaderBytes + 2 + idLen + 4 + 16 + VectorBytes(codec, n)
}
