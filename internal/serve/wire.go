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
	svc *Service
	srv wire.Server
}

// ListenWire starts a binary scoring listener on addr (":0" for an
// ephemeral port).
func ListenWire(svc *Service, addr string) (*WireServer, error) {
	ws := newWireServer(svc)
	if err := ws.srv.Listen(addr); err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	return ws, nil
}

func newWireServer(svc *Service) *WireServer {
	ws := &WireServer{svc: svc}
	ws.srv = wire.Server{Name: "scoring service", MaxPayload: ws.maxPayload, NewHandler: ws.newHandler}
	return ws
}

// Addr returns the listener's address.
func (ws *WireServer) Addr() string { return ws.srv.Addr() }

// Stop closes the listener and every in-flight connection, then joins
// the handler goroutines. The underlying Service keeps running.
func (ws *WireServer) Stop() { ws.srv.Stop() }

// maxPayload caps each frame type's payload before it is read: a score
// batch at MaxScorePoints, a model push at a float64-coded vector of the
// serving model's size (the largest a push of the right model can be).
func (ws *WireServer) maxPayload(t wire.MsgType) int {
	switch t {
	case wire.MsgScore:
		return wire.MaxScorePayload
	case wire.MsgReload, wire.MsgCanaryPush:
		return wire.ReloadBytes(wire.VecF64, ws.svc.state.Load().det.Model().NumParams()) - wire.HeaderBytes
	}
	return 0
}

// newHandler serves one persistent producer connection.
func (ws *WireServer) newHandler() wire.Handler {
	var (
		values   []float64
		verdicts []wire.ScoreVerdict
	)
	return func(wc *wire.Conn, fr wire.Frame) bool {
		switch fr.Type {
		case wire.MsgScore:
			station, vals, err := wire.ParseScore(fr.Payload, values[:0])
			if err != nil {
				_ = wc.WriteError(wire.ErrCodeBadRequest, err.Error())
				return false
			}
			values = vals
			// Resolved per frame, not cached per connection: a cache would
			// pin every station name the producer ever sent, evicted ones
			// included.
			h, err := ws.svc.Station(station)
			if err == nil {
				verdicts, err = ws.score(h, vals, verdicts[:0])
			}
			out := verdicts
			// A batch the service refuses is reported, and ends the
			// connection.
			return wc.Reply(err, wire.MsgScoreOK, func(b []byte) ([]byte, error) {
				return wire.AppendScoreOK(b, out)
			}) && err == nil
		case wire.MsgReload, wire.MsgCanaryPush:
			return ws.push(wc, fr)
		}
		_ = wc.WriteError(wire.ErrCodeBadRequest, fmt.Sprintf("unexpected message type %d", fr.Type))
		return false
	}
}

// push serves a post-round model push: MsgReload swaps the weights in
// live, MsgCanaryPush stages them as a canary candidate. A push the
// service refuses is reported and the connection kept.
func (ws *WireServer) push(wc *wire.Conn, fr wire.Frame) bool {
	threshold, vec, err := wire.ParseReload(fr.Payload)
	var weights []float64
	if err == nil {
		// Pushes are connectionless: no delta reference exists, so
		// q8-coded vectors fail decode with ErrNoRef by design.
		weights, _, err = wire.DecodeVector(vec, nil, nil)
	}
	if err != nil {
		_ = wc.WriteError(wire.ErrCodeBadRequest, err.Error())
		return false
	}
	if fr.Type == wire.MsgReload {
		epoch, err := ws.svc.ReloadWeights(weights, threshold)
		return wc.Reply(err, wire.MsgReloadOK, func(b []byte) ([]byte, error) { return wire.AppendReloadOK(b, epoch) })
	}
	gen, err := ws.svc.StageWeights(weights, threshold)
	return wc.Reply(err, wire.MsgCanaryPushOK, func(b []byte) ([]byte, error) { return wire.AppendCanaryPushOK(b, gen) })
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
