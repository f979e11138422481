package serve

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/evfed/evfed/internal/fed/wire"
)

// WireServer exposes a Service over the federation's binary framing: one
// persistent TCP connection per producer, MsgScore in / MsgScoreOK out,
// plus the federated coordinator's post-round model pushes, MsgReload
// (hot reload) and MsgCanaryPush (stage a candidate). One MsgScore frame
// carries one station's batch of consecutive observations; the response
// carries their verdicts in submission order. Operator control (promote,
// rollback, rollout status) is the HTTP ControlHandler only.
type WireServer struct {
	svc  *Service
	ln   net.Listener
	wrap func(net.Conn) net.Conn

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// ListenWire starts a binary scoring listener on addr (":0" for an
// ephemeral port).
func ListenWire(svc *Service, addr string) (*WireServer, error) {
	return ListenWireWrapped(svc, addr, nil)
}

// ListenWireWrapped starts a binary scoring listener whose accepted
// connections pass through wrap first — the listen-side seam the chaos
// fault injector plugs into (chaos.Injector.ConnWrapper). A nil wrap is
// the production path and costs nothing.
func ListenWireWrapped(svc *Service, addr string, wrap func(net.Conn) net.Conn) (*WireServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	ws := &WireServer{svc: svc, ln: ln, wrap: wrap, conns: make(map[net.Conn]struct{})}
	ws.wg.Add(1)
	go ws.acceptLoop()
	return ws, nil
}

// Addr returns the listener's address.
func (ws *WireServer) Addr() string { return ws.ln.Addr().String() }

// Stop closes the listener and every in-flight connection, then joins
// the handler goroutines. The underlying Service keeps running.
func (ws *WireServer) Stop() {
	ws.mu.Lock()
	if ws.closed {
		ws.mu.Unlock()
		return
	}
	ws.closed = true
	ws.ln.Close()
	for c := range ws.conns {
		c.Close()
	}
	ws.mu.Unlock()
	ws.wg.Wait()
}

func (ws *WireServer) acceptLoop() {
	defer ws.wg.Done()
	for {
		conn, err := ws.ln.Accept()
		if err != nil {
			return
		}
		if ws.wrap != nil {
			conn = ws.wrap(conn)
		}
		ws.mu.Lock()
		if ws.closed {
			ws.mu.Unlock()
			conn.Close()
			return
		}
		ws.conns[conn] = struct{}{}
		ws.wg.Add(1)
		ws.mu.Unlock()
		go func() {
			defer ws.wg.Done()
			defer func() {
				ws.mu.Lock()
				delete(ws.conns, conn)
				ws.mu.Unlock()
				conn.Close()
			}()
			ws.handle(conn)
		}()
	}
}

// handle serves one persistent producer connection.
func (ws *WireServer) handle(conn net.Conn) {
	wc := wire.NewConn(conn)
	var (
		values   []float64
		verdicts []wire.ScoreVerdict
	)
	for {
		fr, err := wc.ReadFrame()
		if err != nil {
			return // EOF, reaped, or not our protocol
		}
		if fr.Version != wire.Version {
			ws.respondError(wc, wire.ErrorMsg{
				Code:        wire.ErrCodeVersion,
				PeerVersion: wire.Version,
				Text:        fmt.Sprintf("scoring service speaks protocol v%d, got v%d", wire.Version, fr.Version),
			})
			return
		}
		switch fr.Type {
		case wire.MsgScore:
			station, vals, perr := wire.ParseScore(fr.Payload, values[:0])
			if perr != nil {
				ws.respondError(wc, wire.ErrorMsg{Code: wire.ErrCodeBadRequest, PeerVersion: wire.Version, Text: perr.Error()})
				return
			}
			values = vals
			// Resolved per frame, not cached per connection: a cache would
			// pin every station name the producer ever sent, evicted ones
			// included.
			h, herr := ws.svc.Station(station)
			if herr != nil {
				ws.respondError(wc, wire.ErrorMsg{Code: wire.ErrCodeApp, PeerVersion: wire.Version, Text: herr.Error()})
				return
			}
			var serr error
			if verdicts, serr = ws.score(h, vals, verdicts[:0]); serr != nil {
				ws.respondError(wc, wire.ErrorMsg{Code: wire.ErrCodeApp, PeerVersion: wire.Version, Text: serr.Error()})
				return
			}
			out := verdicts
			if werr := wc.WriteFrame(wire.MsgScoreOK, func(b []byte) ([]byte, error) {
				return wire.AppendScoreOK(b, out)
			}); werr != nil {
				return
			}
		case wire.MsgReload:
			threshold, vecPayload, perr := wire.ParseReload(fr.Payload)
			if perr != nil {
				ws.respondError(wc, wire.ErrorMsg{Code: wire.ErrCodeBadRequest, PeerVersion: wire.Version, Text: perr.Error()})
				return
			}
			// Reload pushes are connectionless: no delta reference exists,
			// so q8-coded vectors fail decode with ErrNoRef by design.
			weights, _, derr := wire.DecodeVector(vecPayload, nil, nil)
			if derr != nil {
				ws.respondError(wc, wire.ErrorMsg{Code: wire.ErrCodeBadRequest, PeerVersion: wire.Version, Text: derr.Error()})
				return
			}
			epoch, rerr := ws.svc.ReloadWeights(weights, threshold)
			if rerr != nil {
				ws.respondError(wc, wire.ErrorMsg{Code: wire.ErrCodeApp, PeerVersion: wire.Version, Text: rerr.Error()})
				continue
			}
			if werr := wc.WriteFrame(wire.MsgReloadOK, func(b []byte) ([]byte, error) {
				return wire.AppendReloadOK(b, epoch)
			}); werr != nil {
				return
			}
		case wire.MsgCanaryPush:
			threshold, vecPayload, perr := wire.ParseReload(fr.Payload)
			if perr != nil {
				ws.respondError(wc, wire.ErrorMsg{Code: wire.ErrCodeBadRequest, PeerVersion: wire.Version, Text: perr.Error()})
				return
			}
			weights, _, derr := wire.DecodeVector(vecPayload, nil, nil)
			if derr != nil {
				ws.respondError(wc, wire.ErrorMsg{Code: wire.ErrCodeBadRequest, PeerVersion: wire.Version, Text: derr.Error()})
				return
			}
			gen, serr := ws.svc.StageWeights(weights, threshold)
			if serr != nil {
				ws.respondError(wc, wire.ErrorMsg{Code: wire.ErrCodeApp, PeerVersion: wire.Version, Text: serr.Error()})
				continue
			}
			if werr := wc.WriteFrame(wire.MsgCanaryPushOK, func(b []byte) ([]byte, error) {
				return wire.AppendCanaryPushOK(b, gen)
			}); werr != nil {
				return
			}
		default:
			ws.respondError(wc, wire.ErrorMsg{
				Code:        wire.ErrCodeBadRequest,
				PeerVersion: wire.Version,
				Text:        fmt.Sprintf("unexpected message type %d", fr.Type),
			})
			return
		}
	}
}

// score submits one station's observation batch (one ingress-ring
// reservation per SubmitN call) and gathers the verdicts in submission
// order. A full shard queue is waited out rather than surfaced: the
// unread TCP stream is itself the backpressure signal to the producer.
func (ws *WireServer) score(h *Station, vals []float64, out []wire.ScoreVerdict) ([]wire.ScoreVerdict, error) {
	if cap(out) < len(vals) {
		out = make([]wire.ScoreVerdict, 0, len(vals))
	}
	out = out[:len(vals)]
	var wg sync.WaitGroup
	wg.Add(len(vals))
	// k is written only by the owning shard goroutine (a single station
	// maps to one shard, which delivers in submission order); wg.Wait
	// publishes the filled slice back to this goroutine.
	k := 0
	reply := func(verdict Verdict) {
		out[k] = toWire(verdict)
		k++
		wg.Done()
	}
	off := 0
	for off < len(vals) {
		n, err := h.SubmitN(vals[off:], reply)
		off += n
		if err != nil {
			if errors.Is(err, ErrBacklog) {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			wg.Add(off - len(vals)) // cancel the never-submitted tail
			wg.Wait()               // collect verdicts already accepted before failing
			return nil, err
		}
	}
	wg.Wait()
	return out, nil
}

func toWire(v Verdict) wire.ScoreVerdict {
	var flags uint8
	if v.Ready {
		flags |= wire.VerdictReady
	}
	if v.Flagged {
		flags |= wire.VerdictFlagged
	}
	if v.Canary {
		flags |= wire.VerdictCanary
	}
	return wire.ScoreVerdict{
		Index:     uint64(v.Index),
		Flags:     flags,
		Epoch:     uint32(v.Epoch),
		Score:     v.Score,
		Mitigated: v.Mitigated,
	}
}

func (ws *WireServer) respondError(wc *wire.Conn, e wire.ErrorMsg) {
	_ = wc.WriteFrame(wire.MsgError, func(b []byte) ([]byte, error) {
		return wire.AppendError(b, e)
	})
}

// WireClient is a producer-side handle for a WireServer: it scores
// observation batches and pushes model reloads over one persistent
// connection. Not safe for concurrent use.
type WireClient struct {
	conn     net.Conn
	wc       *wire.Conn
	timeout  time.Duration
	verdicts []wire.ScoreVerdict
}

// DialWire connects to a binary scoring listener. timeout bounds the
// dial and every subsequent request/response exchange (0 = no deadline).
func DialWire(addr string, timeout time.Duration) (*WireClient, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	return &WireClient{conn: conn, wc: wire.NewConn(conn), timeout: timeout}, nil
}

// Close releases the connection.
func (c *WireClient) Close() error { return c.conn.Close() }

// Score submits one station's batch of consecutive observations and
// returns their verdicts in submission order. The returned slice is
// reused by the next Score call.
func (c *WireClient) Score(station string, values []float64) ([]wire.ScoreVerdict, error) {
	fr, err := c.exchange(wire.MsgScore, func(b []byte) ([]byte, error) {
		return wire.AppendScore(b, station, values)
	})
	if err != nil {
		return nil, err
	}
	if fr.Type != wire.MsgScoreOK {
		return nil, fmt.Errorf("serve: unexpected response type %d", fr.Type)
	}
	c.verdicts, err = wire.ParseScoreOK(fr.Payload, c.verdicts[:0])
	if err != nil {
		return nil, err
	}
	if len(c.verdicts) != len(values) {
		return nil, fmt.Errorf("serve: %d verdicts for %d observations", len(c.verdicts), len(values))
	}
	return c.verdicts, nil
}

// Reload pushes new detector weights (and optionally a new threshold;
// ≤ 0 keeps the serving one) encoded with codec (VecF64 or VecF32) and
// returns the model epoch now serving.
func (c *WireClient) Reload(weights []float64, threshold float64, codec wire.VecCodec) (int, error) {
	fr, err := c.exchange(wire.MsgReload, func(b []byte) ([]byte, error) {
		return wire.AppendVector(wire.AppendReload(b, threshold), codec, weights, nil, nil)
	})
	if err != nil {
		return 0, err
	}
	if fr.Type != wire.MsgReloadOK {
		return 0, fmt.Errorf("serve: unexpected response type %d", fr.Type)
	}
	return wire.ParseReloadOK(fr.Payload)
}

func (c *WireClient) exchange(t wire.MsgType, build func([]byte) ([]byte, error)) (wire.Frame, error) {
	if c.timeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	if err := c.wc.WriteFrame(t, build); err != nil {
		return wire.Frame{}, fmt.Errorf("serve: write: %w", err)
	}
	fr, err := c.wc.ReadFrame()
	if err != nil {
		return wire.Frame{}, fmt.Errorf("serve: read: %w", err)
	}
	if fr.Type == wire.MsgError {
		e, perr := wire.ParseError(fr.Payload)
		if perr != nil {
			return wire.Frame{}, perr
		}
		return wire.Frame{}, fmt.Errorf("serve: remote: %s", e.Text)
	}
	return fr, nil
}

// StageCanary pushes new detector weights as a canary candidate
// (threshold ≤ 0 inherits the serving one) and returns the staging
// generation.
func (c *WireClient) StageCanary(weights []float64, threshold float64, codec wire.VecCodec) (uint64, error) {
	fr, err := c.exchange(wire.MsgCanaryPush, func(b []byte) ([]byte, error) {
		return wire.AppendVector(wire.AppendReload(b, threshold), codec, weights, nil, nil)
	})
	if err != nil {
		return 0, err
	}
	if fr.Type != wire.MsgCanaryPushOK {
		return 0, fmt.Errorf("serve: unexpected response type %d", fr.Type)
	}
	return wire.ParseCanaryPushOK(fr.Payload)
}

// PushReload dials addr, pushes weights (+ threshold, ≤ 0 to keep) with
// codec and returns the model epoch now serving — the one-shot form the
// federated coordinator's OnRound hook uses (cmd/evfedcoord
// -serve-reload).
func PushReload(addr string, weights []float64, threshold float64, codec wire.VecCodec, timeout time.Duration) (int, error) {
	c, err := DialWire(addr, timeout)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return c.Reload(weights, threshold, codec)
}

// PushCanary dials addr and stages weights as a canary candidate — the
// one-shot form cmd/evfedcoord -serve-canary uses after each federated
// round. Returns the staging generation.
func PushCanary(addr string, weights []float64, threshold float64, codec wire.VecCodec, timeout time.Duration) (uint64, error) {
	c, err := DialWire(addr, timeout)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return c.StageCanary(weights, threshold, codec)
}
