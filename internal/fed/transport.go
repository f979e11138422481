package fed

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/evfed/evfed/internal/fed/wire"
	"github.com/evfed/evfed/internal/rng"
)

// The TCP transport turns the in-process federation into a real networked
// deployment: each charging station runs a ClientServer; the coordinator
// holds RemoteClient handles that speak the binary frame protocol of
// internal/fed/wire over a persistent connection.
//
// Wire protocol (length-prefixed binary frames, many request/response
// pairs per connection):
//
//	coordinator → station:  Hello | Probe | Train{config, weights}
//	station → coordinator:  HelloOK | ProbeOK | TrainOK{update} | Error
//
// Every frame header carries the protocol version; the Hello handshake
// negotiates it — a station receiving a frame from a different protocol
// revision answers with a typed Error frame carrying its own revision and
// closes, so skewed peers fail fast with ErrProtocolMismatch instead of
// exchanging garbage. A peer that is not speaking this protocol at all
// (e.g. a legacy gob coordinator) fails the magic check on its first
// frame and the connection is dropped immediately; a legacy gob *station*
// never answers the binary Hello, which surfaces as ErrHello under the
// probe deadline.
//
// Connections are persistent: a RemoteClient keeps its connection across
// rounds and transparently re-dials when a reused connection has gone
// stale (server restart, idle reap by ServerConfig.RequestTimeout). The
// int8 delta codec's downlink reference is connection-scoped state held
// by BOTH ends and committed at the same message boundary (TrainOK), so
// a reconnect — which resets the state on both sides at once — can never
// make coordinator and station quantize against different references.
//
// Failure handling: RemoteClient applies a dial timeout, per-call
// read/write deadlines, and bounded exponential-backoff retries for
// transient dial/IO errors. Application errors reported by the station
// (ErrRemote) are never retried and leave the connection open; transport
// errors close it. ClientServer's connection lifecycle — accept loop,
// connection tracking that Stop cannot race, per-frame deadlines, the
// version-skew reply and per-type payload caps — is wire.Server, shared
// with the scoring service.

// ErrRemote wraps an error string reported by the remote client.
var ErrRemote = errors.New("fed: remote client error")

// ErrProtocolMismatch marks an affirmative protocol incompatibility: the
// peer answered with a different protocol revision, or with bytes that
// are not this protocol at all. It is a configuration bug (like
// ErrDimMismatch), so the coordinator's preflight treats it as fatal even
// under TolerateClientErrors.
var ErrProtocolMismatch = errors.New("fed: station speaks an incompatible federation protocol")

// ErrHello marks a failed Hello handshake with a silent peer: the station
// accepted the connection but never answered the binary Hello before the
// probe deadline (a legacy gob station blocked mid-decode, or a hung
// peer). Unlike ErrProtocolMismatch this is not affirmative, so tolerant
// federations treat it like any unreachable station.
var ErrHello = errors.New("fed: Hello handshake got no response (legacy gob station, or hung peer)")

// HelloInfo is the peer identity returned by the Hello handshake.
type HelloInfo struct {
	// StationID is the peer's self-reported identifier.
	StationID string
	// ModelDim is the peer's weight-vector dimension; the coordinator
	// rejects peers whose dimension differs from the global model's.
	ModelDim int
	// NumSamples is the peer's private training-set size (an edge reports
	// its subtree total).
	NumSamples int
	// Role reports whether the peer is a leaf station (RoleStation) or an
	// aggregation node fronting its own subtree (RoleAggregate). Peers
	// predating the hierarchy omit the byte and parse as RoleStation.
	Role uint8
}

// Prober is implemented by client handles that support the Hello
// handshake. The coordinator probes every Prober before round 1 and
// fails fast on model-dimension mismatches instead of discovering them
// as aggregation errors mid-run.
type Prober interface {
	Hello() (HelloInfo, error)
}

// ServerConfig tunes a ClientServer's connection lifecycle and codec
// policy.
type ServerConfig struct {
	// RequestTimeout is the server's wire.Server Timeout: it bounds each
	// request read and response write, so half-open peers cannot pin
	// handlers, and reaps idle connections (the coordinator re-dials).
	// 0 disables it. It does NOT bound local training.
	RequestTimeout time.Duration
	// Codec is the station's uplink compression floor: updates are
	// encoded with the more compressed of this and what the coordinator's
	// request asked for (vector payloads are self-describing, so the
	// coordinator decodes whatever arrives). The zero value defers
	// entirely to the coordinator. A bandwidth-constrained station uses
	// this to force compression regardless of coordinator configuration.
	Codec Codec
	// WrapConn, if set, wraps every accepted connection before it is
	// tracked — the listen-side seam the chaos fault injector plugs into
	// (chaos.Injector.ConnWrapper). Nil costs nothing.
	WrapConn func(net.Conn) net.Conn
}

// servedNode is what the TCP server needs from the peer it fronts: the
// Hello/Probe identity calls plus one respondTrain that answers a Train
// request with a response frame builder. A leaf Client answers MsgTrainOK
// with its update; an Edge answers MsgTrainPartial with its subtree's
// partial aggregate — the server's framing, session and delta-reference
// machinery is identical for both roles.
type servedNode interface {
	nodeID() string
	hello() (HelloInfo, error)
	numSamples() (int, error)
	// respondTrain runs the peer's training for one parsed Train request
	// (weights is the decoded broadcast, owned by the session) and
	// returns the response type and payload builder. An error is an
	// application error: reported as ErrCodeApp, connection kept.
	respondTrain(tr wire.Train, weights []float64, scfg ServerConfig) (wire.MsgType, func([]byte) ([]byte, error), error)
}

// leafStation is what the station-side server needs from the handle it
// fronts: local training plus the Hello probe. *Client satisfies it, as
// does a MaliciousClient wrapping one — serving the wrapper sends its
// corrupted updates through the identical wire path.
type leafStation interface {
	ClientHandle
	Prober
}

// clientPeer adapts a leaf station to the server.
type clientPeer struct{ c leafStation }

func (p clientPeer) nodeID() string            { return p.c.ID() }
func (p clientPeer) hello() (HelloInfo, error) { return p.c.Hello() }
func (p clientPeer) numSamples() (int, error)  { return p.c.NumSamples() }

// trainConfig is the local-training call a Train request asks for. The
// wire performs the real encoding (an edge's partial uplink is always raw
// float64), so the peer must not additionally simulate a codec.
func trainConfig(tr wire.Train) LocalTrainConfig {
	return LocalTrainConfig{
		Epochs:       tr.Epochs,
		BatchSize:    tr.BatchSize,
		LearningRate: tr.LearningRate,
		Workers:      tr.Workers,
		Round:        tr.Round,
		Privacy:      Privacy{ClipNorm: tr.PrivacyClip, NoiseStd: tr.PrivacyNoise},
		ProximalMu:   tr.ProximalMu,
		Codec:        CodecNone,
		PartialKind:  PartialKind(tr.PartialKind),
	}
}

func (p clientPeer) respondTrain(tr wire.Train, weights []float64, scfg ServerConfig) (wire.MsgType, func([]byte) ([]byte, error), error) {
	u, err := p.c.Train(weights, trainConfig(tr))
	if err != nil {
		return 0, nil, err
	}
	upCodec := maxVecCodec(tr.UpdateCodec, scfg.Codec.upVec())
	return wire.MsgTrainOK, func(b []byte) ([]byte, error) {
		b, err := wire.AppendTrainOK(b, wire.TrainOK{
			StationID:    u.ClientID,
			NumSamples:   u.NumSamples,
			TrainSeconds: u.TrainSeconds,
			FinalLoss:    u.FinalLoss,
		})
		if err != nil {
			return nil, err
		}
		// Uplink delta reference is this round's broadcast as this
		// station reconstructed it.
		return wire.AppendVector(b, upCodec, u.Weights, weights, nil)
	}, nil
}

// edgePeer adapts an Edge aggregator to the server.
type edgePeer struct{ e *Edge }

func (p edgePeer) nodeID() string            { return p.e.id }
func (p edgePeer) hello() (HelloInfo, error) { return p.e.Hello() }
func (p edgePeer) numSamples() (int, error)  { return p.e.NumSamples() }

func (p edgePeer) respondTrain(tr wire.Train, weights []float64, scfg ServerConfig) (wire.MsgType, func([]byte) ([]byte, error), error) {
	// The edge applies its own downstream codec to its subtree.
	part, err := p.e.TrainPartial(weights, trainConfig(tr))
	if err != nil {
		// Any edge failure — including a fully-dropped subtree — is an
		// application error: a tolerant root drops just this subtree and
		// the round completes on the surviving edges.
		return 0, nil, err
	}
	return wire.MsgTrainPartial, func(b []byte) ([]byte, error) {
		return wire.AppendTrainPartial(b, wire.TrainPartial{
			NodeID:           part.NodeID,
			Kind:             uint8(part.Kind),
			LeafParticipants: part.LeafParticipants,
			LeafDropped:      part.LeafDropped,
			SampleSum:        uint64(part.SampleSum),
			Count:            part.Count,
			LossSum:          part.LossSum,
			ClientSeconds:    part.ClientSeconds,
			BytesDown:        part.BytesDown,
			BytesUp:          part.BytesUp,
			Dim:              part.Dim,
			WeightTotal:      part.WeightTotal,
			Hi:               part.AccHi,
			Lo:               part.AccLo,
			Held:             part.Held,
		})
	}, nil
}

// ClientServer exposes an aggregation peer — a leaf Client (ServeClient)
// or an Edge (ServeEdge) — over TCP.
type ClientServer struct {
	peer servedNode
	scfg ServerConfig
	srv  wire.Server
}

// ServeClient starts serving client on addr (e.g. "127.0.0.1:0") with the
// default (deadline-free, coordinator-driven codec) server configuration
// and returns the running server. Stop must be called to release the
// listener.
func ServeClient(client *Client, addr string) (*ClientServer, error) {
	return ServeClientConfig(client, addr, ServerConfig{})
}

// ServeClientConfig starts serving client on addr with explicit lifecycle
// configuration. Stop must be called to release the listener.
func ServeClientConfig(client *Client, addr string, scfg ServerConfig) (*ClientServer, error) {
	return servePeer(clientPeer{c: client}, addr, scfg)
}

// ServeEdge starts serving an edge aggregator on addr: the same binary
// protocol as a station, answering Train requests with MsgTrainPartial
// frames. Stop must be called to release the listener.
func ServeEdge(e *Edge, addr string, scfg ServerConfig) (*ClientServer, error) {
	return servePeer(edgePeer{e: e}, addr, scfg)
}

func servePeer(peer servedNode, addr string, scfg ServerConfig) (*ClientServer, error) {
	if scfg.RequestTimeout < 0 {
		return nil, fmt.Errorf("%w: request timeout %v", ErrBadConfig, scfg.RequestTimeout)
	}
	if err := scfg.Codec.validate(); err != nil {
		return nil, err
	}
	s := &ClientServer{peer: peer, scfg: scfg}
	s.srv = wire.Server{
		Name:       "station " + peer.nodeID(),
		Timeout:    scfg.RequestTimeout,
		Wrap:       scfg.WrapConn,
		MaxPayload: maxRequestPayload,
		NewHandler: s.newHandler,
	}
	if err := s.srv.Listen(addr); err != nil {
		return nil, fmt.Errorf("fed: listen %s: %w", addr, err)
	}
	return s, nil
}

// Addr returns the server's bound address.
func (s *ClientServer) Addr() string { return s.srv.Addr() }

// Stop closes the listener and every in-flight connection, then waits for
// every handler; one mid-training finishes its local computation first.
func (s *ClientServer) Stop() { s.srv.Stop() }

// maxRequestPayload caps each request type's payload before it is read:
// Hello and Probe carry none, and Train keeps MaxFrameBytes because an
// edge learns its model dimension only by probing its own subtree.
func maxRequestPayload(t wire.MsgType) int {
	if t == wire.MsgTrain {
		return wire.MaxFrameBytes
	}
	return 0
}

// session is one connection's protocol state: the reconstructed broadcast
// the delta codec quantizes against, plus reusable decode scratch. It
// dies with the connection on both ends simultaneously.
type session struct {
	global []float64 // last committed broadcast reconstruction (delta reference)
	spare  []float64 // decode target, swapped with global on commit
}

// newHandler serves one persistent connection: many request/response
// pairs until the peer closes, a deadline reaps it, or a protocol error
// makes further framing meaningless. An application error is reported
// and the connection kept.
func (s *ClientServer) newHandler() wire.Handler {
	var sess session
	return func(wc *wire.Conn, fr wire.Frame) bool {
		switch fr.Type {
		case wire.MsgHello:
			info, err := s.peer.hello()
			return wc.Reply(err, wire.MsgHelloOK, func(b []byte) ([]byte, error) {
				return wire.AppendHelloOK(b, wire.HelloOK{
					StationID:  info.StationID,
					ModelDim:   info.ModelDim,
					NumSamples: info.NumSamples,
					Role:       info.Role,
				})
			})
		case wire.MsgProbe:
			n, err := s.peer.numSamples()
			return wc.Reply(err, wire.MsgProbeOK, func(b []byte) ([]byte, error) {
				return wire.AppendProbeOK(b, wire.ProbeOK{NumSamples: n})
			})
		case wire.MsgTrain:
			return s.handleTrain(wc, fr.Payload, &sess)
		}
		_ = wc.WriteError(wire.ErrCodeBadRequest, fmt.Sprintf("unexpected message type %d", fr.Type))
		return false
	}
}

// handleTrain serves one training request. It reports whether the
// connection is still healthy enough to keep serving.
func (s *ClientServer) handleTrain(wc *wire.Conn, payload []byte, sess *session) bool {
	tr, vecPayload, err := wire.ParseTrain(payload)
	if err != nil {
		_ = wc.WriteError(wire.ErrCodeBadRequest, err.Error())
		return false
	}
	weights, _, err := wire.DecodeVector(vecPayload, sess.spare[:0], sess.global)
	if err != nil {
		code := wire.ErrCodeBadRequest
		if errors.Is(err, wire.ErrNoRef) {
			// The coordinator delta-coded against a reference this
			// connection does not hold: state skew. Closing forces a
			// fresh connection, which resets both ends to full frames.
			code = wire.ErrCodeNoDeltaRef
		}
		_ = wc.WriteError(code, err.Error())
		return false
	}
	sess.spare = weights // keep ownership of the (possibly regrown) buffer

	respType, build, err := s.peer.respondTrain(tr, weights, s.scfg)
	ok := wc.Reply(err, respType, build)
	if err == nil {
		// Commit the session's delta reference at the success-response
		// boundary: the decoded broadcast becomes the reference, the old
		// reference becomes decode scratch. An application error commits
		// nothing — the coordinator commits its side only on success, and
		// both ends must move in lockstep. If the write failed the
		// coordinator saw a transport error and will re-dial, discarding
		// this session anyway.
		sess.global, sess.spare = weights, sess.global
	}
	return ok
}

// countingConn counts transferred bytes around a net.Conn.
type countingConn struct {
	net.Conn
	sent, recv *atomic.Uint64
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.recv.Add(uint64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.sent.Add(uint64(n))
	return n, err
}

// RemoteClient is a ClientHandle that reaches a ClientServer over TCP on
// a persistent connection. The exported fields tune failure handling and
// may be adjusted before the handle is used; they must not be mutated
// concurrently with calls. Calls are serialized by an internal mutex.
type RemoteClient struct {
	id   string
	addr string
	// DialTimeout bounds connection establishment per attempt.
	DialTimeout time.Duration
	// WriteTimeout bounds sending one request (the serialized global
	// weight vector). 0 = no deadline.
	WriteTimeout time.Duration
	// ReadTimeout bounds waiting for one Train response, which includes
	// the station's local training time — size it to the slowest
	// acceptable station, not to network latency. 0 = no deadline (the
	// coordinator's round deadline is then the only straggler cutoff).
	ReadTimeout time.Duration
	// ProbeTimeout bounds waiting for Hello/NumSamples responses, which
	// involve no training and should answer immediately; it keeps the
	// coordinator's preflight handshake from hanging on a dead station
	// even when ReadTimeout is unset. 0 = fall back to ReadTimeout.
	ProbeTimeout time.Duration
	// MaxRetries is the number of additional attempts after a transient
	// dial/IO failure. Application errors (ErrRemote) and affirmative
	// protocol mismatches are never retried.
	MaxRetries int
	// RetryBackoff is the base sleep before the first retry; the ceiling
	// doubles after every failed attempt (capped at 30s) and the actual
	// sleep is drawn uniformly from [0, ceiling) — "full jitter", so a
	// fleet of stations re-dialing a restarted coordinator spreads out
	// instead of hammering it in lockstep.
	RetryBackoff time.Duration
	// JitterSeed seeds the backoff jitter stream. 0 derives a per-handle
	// seed from the handle's ID and address, so different stations jitter
	// differently while any single handle stays deterministic.
	JitterSeed uint64
	// Dialer, if set, replaces net.DialTimeout("tcp", ...) — the dial-side
	// seam the chaos fault injector plugs into (chaos.Injector.Dialer).
	// Nil costs nothing.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)

	// jitter is the lazily-built backoff jitter stream; sleep is a test
	// seam over time.Sleep. Both are touched only under mu (every public
	// call holds it).
	jitter *rng.Source
	sleep  func(time.Duration)

	mu       sync.Mutex
	conn     net.Conn
	wc       *wire.Conn
	connSent bool // a Train completed on this connection (delta reference live)
	// sentGlobal is the station's committed broadcast reconstruction —
	// the delta codec's downlink reference — and reconBuf the in-flight
	// reconstruction; they swap on TrainOK.
	sentGlobal []float64
	reconBuf   []float64

	bytesSent atomic.Uint64
	bytesRecv atomic.Uint64
}

var _ ClientHandle = (*RemoteClient)(nil)
var _ Prober = (*RemoteClient)(nil)

// NewRemoteClient builds a handle for the client served at addr, with
// production-leaning defaults: 5s dial timeout, 30s write deadline, 10m
// training read deadline, 10s probe deadline, and 2 retries starting at
// a 200ms backoff.
func NewRemoteClient(id, addr string) *RemoteClient {
	return &RemoteClient{
		id:           id,
		addr:         addr,
		DialTimeout:  5 * time.Second,
		WriteTimeout: 30 * time.Second,
		ReadTimeout:  10 * time.Minute,
		ProbeTimeout: 10 * time.Second,
		MaxRetries:   2,
		RetryBackoff: 200 * time.Millisecond,
	}
}

// ID implements ClientHandle.
func (r *RemoteClient) ID() string { return r.id }

// Traffic reports the total bytes this handle has sent and received,
// including frame headers and every retry.
func (r *RemoteClient) Traffic() (sent, recv uint64) {
	return r.bytesSent.Load(), r.bytesRecv.Load()
}

// Close releases the persistent connection (if any). The handle remains
// usable: the next call re-dials.
func (r *RemoteClient) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resetConn()
	return nil
}

func (r *RemoteClient) ensureConn() error {
	if r.conn != nil {
		return nil
	}
	dial := r.Dialer
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	conn, err := dial(r.addr, r.DialTimeout)
	if err != nil {
		return fmt.Errorf("fed: dial %s: %w", r.addr, err)
	}
	cc := countingConn{Conn: conn, sent: &r.bytesSent, recv: &r.bytesRecv}
	r.conn = cc
	r.wc = wire.NewConn(cc)
	r.connSent = false
	return nil
}

func (r *RemoteClient) resetConn() {
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
		r.wc = nil
	}
	r.connSent = false
}

// Hello performs the identity/compatibility handshake with the station.
// A silent peer (deadline or EOF with no Hello response) is reported as
// ErrHello; an affirmative incompatibility as ErrProtocolMismatch.
func (r *RemoteClient) Hello() (HelloInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var info HelloInfo
	err := r.roundTrip(func() error {
		fr, err := r.exchange(true, wire.MsgHello, nil)
		if err != nil {
			return err
		}
		ok, err := wire.ParseHelloOK(fr.Payload)
		if err != nil {
			return fmt.Errorf("fed: %s: %w", r.addr, err)
		}
		info = HelloInfo{StationID: ok.StationID, ModelDim: ok.ModelDim, NumSamples: ok.NumSamples, Role: ok.Role}
		return nil
	})
	if err != nil && !errors.Is(err, ErrRemote) && !errors.Is(err, ErrProtocolMismatch) {
		var nerr net.Error
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
			(errors.As(err, &nerr) && nerr.Timeout()) {
			err = fmt.Errorf("%w: %s: %w", ErrHello, r.addr, err)
		}
	}
	if err != nil {
		return HelloInfo{}, err
	}
	return info, nil
}

// NumSamples implements ClientHandle.
func (r *RemoteClient) NumSamples() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int
	err := r.roundTrip(func() error {
		fr, err := r.exchange(true, wire.MsgProbe, nil)
		if err != nil {
			return err
		}
		ok, err := wire.ParseProbeOK(fr.Payload)
		if err != nil {
			return fmt.Errorf("fed: %s: %w", r.addr, err)
		}
		n = ok.NumSamples
		return nil
	})
	return n, err
}

// Train implements ClientHandle. The broadcast goes down encoded per
// cfg.Codec (delta-coded against the previous broadcast once this
// connection has completed a round) and the update comes back encoded
// per the station's effective codec.
func (r *RemoteClient) Train(global []float64, cfg LocalTrainConfig) (Update, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := cfg.Codec.validate(); err != nil {
		return Update{}, fmt.Errorf("fed: %s: %w", r.id, err)
	}
	var u Update
	err := r.roundTrip(func() error {
		down := cfg.Codec.downVec(r.connSent)
		var ref []float64
		if down == wire.VecQ8 {
			ref = r.sentGlobal
		}
		if cap(r.reconBuf) < len(global) {
			r.reconBuf = make([]float64, len(global))
		}
		recon := r.reconBuf[:len(global)]

		fr, err := r.exchange(false, wire.MsgTrain, func(b []byte) ([]byte, error) {
			b = wire.AppendTrain(b, wire.Train{
				Round:        cfg.Round,
				Epochs:       cfg.Epochs,
				BatchSize:    cfg.BatchSize,
				Workers:      cfg.Workers,
				LearningRate: cfg.LearningRate,
				ProximalMu:   cfg.ProximalMu,
				PrivacyClip:  cfg.Privacy.ClipNorm,
				PrivacyNoise: cfg.Privacy.NoiseStd,
				UpdateCodec:  cfg.Codec.upVec(),
				PartialKind:  uint8(cfg.PartialKind),
			})
			return wire.AppendVector(b, down, global, ref, recon)
		})
		if err != nil {
			return err
		}
		ok, rest, err := wire.ParseTrainOK(fr.Payload)
		if err != nil {
			return fmt.Errorf("fed: %s: %w", r.addr, err)
		}
		// The update outlives this call (the coordinator aggregates it),
		// so it gets its own allocation; the uplink delta reference is
		// this round's broadcast exactly as the station reconstructed it.
		weights, _, err := wire.DecodeVector(rest, nil, recon)
		if err != nil {
			return fmt.Errorf("fed: %s: decode update: %w", r.addr, err)
		}
		u = Update{
			ClientID:     ok.StationID,
			Weights:      weights,
			NumSamples:   ok.NumSamples,
			TrainSeconds: ok.TrainSeconds,
			FinalLoss:    ok.FinalLoss,
		}
		// Commit the downlink delta reference at the same boundary the
		// station does (TrainOK).
		r.sentGlobal, r.reconBuf = recon, r.sentGlobal
		r.connSent = true
		return nil
	})
	if err != nil {
		return Update{}, err
	}
	return u, nil
}

// exchange performs one framed request/response on the live connection,
// mapping Error frames and version skew to typed errors.
func (r *RemoteClient) exchange(probe bool, t wire.MsgType, build func([]byte) ([]byte, error)) (wire.Frame, error) {
	if r.WriteTimeout > 0 {
		_ = r.conn.SetWriteDeadline(time.Now().Add(r.WriteTimeout))
	}
	if err := r.wc.WriteFrame(t, build); err != nil {
		return wire.Frame{}, fmt.Errorf("fed: send to %s: %w", r.addr, err)
	}
	readTimeout := r.ReadTimeout
	if probe && r.ProbeTimeout > 0 {
		readTimeout = r.ProbeTimeout
	}
	if readTimeout > 0 {
		_ = r.conn.SetReadDeadline(time.Now().Add(readTimeout))
	}
	fr, err := r.wc.ReadFrame()
	if err != nil {
		if errors.Is(err, wire.ErrBadMagic) {
			return wire.Frame{}, fmt.Errorf("%w: %s answered with bytes that are not the binary protocol", ErrProtocolMismatch, r.addr)
		}
		return wire.Frame{}, fmt.Errorf("fed: receive from %s: %w", r.addr, err)
	}
	if fr.Version != wire.Version {
		return wire.Frame{}, fmt.Errorf("%w: %s answered with protocol v%d, this coordinator speaks v%d",
			ErrProtocolMismatch, r.addr, fr.Version, wire.Version)
	}
	if fr.Type == wire.MsgError {
		e, perr := wire.ParseError(fr.Payload)
		if perr != nil {
			return wire.Frame{}, fmt.Errorf("fed: %s: unparseable error frame: %w", r.addr, perr)
		}
		switch e.Code {
		case wire.ErrCodeVersion:
			return wire.Frame{}, fmt.Errorf("%w: %s speaks protocol v%d, this coordinator speaks v%d",
				ErrProtocolMismatch, r.addr, e.PeerVersion, wire.Version)
		case wire.ErrCodeApp:
			return wire.Frame{}, fmt.Errorf("%w: %s: %s", ErrRemote, r.id, e.Text)
		default:
			// BadRequest / NoDeltaRef: protocol state skew; the connection
			// reset performed by the caller clears it, so the retry ladder
			// (with a fresh connection and full frames) may succeed.
			return wire.Frame{}, fmt.Errorf("fed: %s rejected the request (code %d): %s", r.addr, e.Code, e.Text)
		}
	}
	return fr, nil
}

// once runs op over a live connection, transparently replacing a stale
// persistent connection: if a *reused* connection fails with a transport
// error, it re-dials once immediately (not counted against the retry
// budget) — the normal fate of a connection the server idle-reaped
// between rounds.
func (r *RemoteClient) once(op func() error) error {
	reused := r.conn != nil
	if err := r.ensureConn(); err != nil {
		return err
	}
	err := op()
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrRemote) {
		return err // application error: the connection stays healthy
	}
	r.resetConn()
	if reused && !errors.Is(err, ErrProtocolMismatch) {
		if err2 := r.ensureConn(); err2 != nil {
			return err2
		}
		err = op()
		if err != nil && !errors.Is(err, ErrRemote) {
			r.resetConn()
		}
	}
	return err
}

// isProtocolMismatch reports an affirmative protocol incompatibility
// (always fatal at preflight, even under tolerance).
func isProtocolMismatch(err error) bool { return errors.Is(err, ErrProtocolMismatch) }

// wireTrainBytes is the exact Train frame size (header included) for one
// broadcast under codec c; first selects the full-precision fallback a
// delta codec pays before the connection holds a reference. The
// coordinator uses it to report bytes-per-round for in-process
// federations under the same policy a TCP deployment would pay.
func wireTrainBytes(c Codec, dim int, first bool) int {
	return wire.TrainBytes(c.downVec(!first), dim)
}

// wireTrainOKBytes is the exact TrainOK frame size for one update under
// codec c and a station-ID length.
func wireTrainOKBytes(c Codec, dim, idLen int) int {
	return wire.TrainOKBytes(c.upVec(), dim, idLen)
}

// roundTrip performs one call with bounded retries. Retrying a Train call
// is safe: the station reinstalls the broadcast weights on every call, so
// a duplicate attempt recomputes the same deterministic update. Retry
// sleeps use full jitter — uniform in [0, ceiling), ceiling doubling per
// attempt — so handles that failed together (a coordinator or station
// restart) do not retry in lockstep.
func (r *RemoteClient) roundTrip(op func() error) error {
	attempts := 1 + r.MaxRetries
	if attempts < 1 {
		attempts = 1
	}
	backoff := r.RetryBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	const backoffCap = 30 * time.Second
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			r.sleepFor(r.jitterDelay(backoff))
			if backoff < backoffCap {
				backoff *= 2
			}
		}
		err := r.once(op)
		if err == nil {
			return nil
		}
		lastErr = err
		if errors.Is(err, ErrRemote) || errors.Is(err, ErrProtocolMismatch) {
			// The station answered: an application error would only
			// repeat, a protocol mismatch cannot self-heal.
			return err
		}
	}
	if attempts > 1 {
		return fmt.Errorf("fed: %s: %d attempts failed: %w", r.addr, attempts, lastErr)
	}
	return lastErr
}

// jitterDelay draws one full-jitter sleep: uniform in [0, ceiling). The
// stream is seeded per handle (JitterSeed, or derived from id/addr) so a
// single handle's retry schedule is deterministic while a fleet's spreads.
func (r *RemoteClient) jitterDelay(ceiling time.Duration) time.Duration {
	if r.jitter == nil {
		seed := r.JitterSeed
		if seed == 0 {
			h := fnv.New64a()
			io.WriteString(h, r.id)
			io.WriteString(h, "\x00")
			io.WriteString(h, r.addr)
			seed = h.Sum64()
		}
		r.jitter = rng.New(seed)
	}
	return time.Duration(r.jitter.Float64() * float64(ceiling))
}

func (r *RemoteClient) sleepFor(d time.Duration) {
	if r.sleep != nil {
		r.sleep(d)
		return
	}
	time.Sleep(d)
}

// connScopedDeltaRef marks the handle's q8 delta reference as living in
// its network connection (see connRefHolder): a checkpointed flag must
// not be restored over a process restart, because the connection — and
// the station's matching reference — died with the old process.
func (r *RemoteClient) connScopedDeltaRef() {}
