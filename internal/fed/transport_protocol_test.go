package fed

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"net"
	"syscall"
	"testing"
	"time"

	"github.com/evfed/evfed/internal/fed/wire"
)

// legacyGobRequest mirrors the pre-binary-protocol gob schema (PR 2/3)
// so tests can impersonate legacy peers.
type legacyGobRequest struct {
	Hello   bool
	Probe   bool
	Weights []float64
	Config  struct {
		Epochs       int
		BatchSize    int
		LearningRate float64
	}
}

type legacyGobResponse struct {
	StationID  string
	ModelDim   int
	NumSamples int
	Err        string
}

// legacyGobStation accepts connections and behaves like the old gob
// server: block decoding a gob request, answer with a gob response.
func legacyGobStation(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var req legacyGobRequest
				if err := gob.NewDecoder(conn).Decode(&req); err != nil {
					return
				}
				_ = gob.NewEncoder(conn).Encode(&legacyGobResponse{StationID: "legacy", NumSamples: 1})
			}()
		}
	}()
	return ln
}

// A new coordinator against a legacy gob station must fail with a typed
// error under the probe deadline — the gob decoder blocks waiting for a
// message our 8-byte Hello frame never completes, so no hang is the
// acceptance bar.
func TestTransportGobStationRejected(t *testing.T) {
	skipIfShort(t)
	ln := legacyGobStation(t)
	rc := NewRemoteClient("legacy", ln.Addr().String())
	rc.ProbeTimeout = 200 * time.Millisecond
	rc.MaxRetries = 0
	start := time.Now()
	_, err := rc.Hello()
	if !errors.Is(err, ErrHello) {
		t.Fatalf("want ErrHello, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("gob station was not cut off by the deadline: %v", elapsed)
	}
}

// A legacy gob coordinator against a new binary station must be dropped
// promptly (magic check), without wedging the server.
func TestTransportGobCoordinatorRejected(t *testing.T) {
	skipIfShort(t)
	c, err := NewClient("bin", smallSpec(), clientSeries(150, 0, 7), 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeClient(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One write: gob emits the type descriptor and the value separately,
	// and the station may already have hung up on the first.
	var req bytes.Buffer
	if err := gob.NewEncoder(&req).Encode(&legacyGobRequest{Hello: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(req.Bytes()); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	// The contract is "dropped promptly". Whether the kernel answers the
	// station's close-with-unread-bytes with FIN or RST is not ours to
	// assert; only the deadline expiring means the station kept us.
	if _, err := io.ReadAll(conn); err != nil && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("station should drop the connection promptly, got %v", err)
	}
	// The station must still serve binary peers afterwards.
	rc := NewRemoteClient("bin", srv.Addr())
	if _, err := rc.NumSamples(); err != nil {
		t.Fatalf("station wedged after gob connection: %v", err)
	}
}

// versionSkewStation answers any frame with a hand-crafted frame carrying
// a foreign protocol version: either a version MsgError (a well-behaved
// future station) or a plain response stamped with the future version.
func versionSkewStation(t *testing.T, viaErrorFrame bool) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				hdr := make([]byte, wire.HeaderBytes)
				if _, err := io.ReadFull(conn, hdr); err != nil {
					return
				}
				payloadLen := int(binary.LittleEndian.Uint32(hdr[4:8]))
				if _, err := io.CopyN(io.Discard, conn, int64(payloadLen)); err != nil {
					return
				}
				var payload []byte
				var msgType byte
				version := byte(99)
				if viaErrorFrame {
					msgType = 7 // MsgError
					version = wire.Version
					payload = append(payload, 2 /* ErrCodeVersion */, 99)
					payload = binary.LittleEndian.AppendUint16(payload, uint16(len("speak v99")))
					payload = append(payload, "speak v99"...)
				} else {
					msgType = 2 // MsgHelloOK stamped with a foreign version
					payload = binary.LittleEndian.AppendUint16(payload, 1)
					payload = append(payload, 'x')
					payload = binary.LittleEndian.AppendUint32(payload, 3)
					payload = binary.LittleEndian.AppendUint32(payload, 4)
				}
				frame := []byte{'E', 'V', version, msgType, 0, 0, 0, 0}
				binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
				frame = append(frame, payload...)
				_, _ = conn.Write(frame)
			}()
		}
	}()
	return ln
}

// Version skew in either form must surface as ErrProtocolMismatch, fast
// (no retries — a protocol mismatch cannot self-heal).
func TestTransportVersionSkewHello(t *testing.T) {
	skipIfShort(t)
	for _, viaError := range []bool{true, false} {
		ln := versionSkewStation(t, viaError)
		rc := NewRemoteClient("future", ln.Addr().String())
		rc.MaxRetries = 3
		rc.RetryBackoff = 300 * time.Millisecond
		start := time.Now()
		_, err := rc.Hello()
		if !errors.Is(err, ErrProtocolMismatch) {
			t.Fatalf("viaError=%v: want ErrProtocolMismatch, got %v", viaError, err)
		}
		if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
			t.Fatalf("viaError=%v: protocol mismatch was retried: %v", viaError, elapsed)
		}
	}
}

// The station must answer a version-skewed coordinator with a typed
// version MsgError frame carrying its own revision, then close.
func TestTransportStationAnswersVersionSkew(t *testing.T) {
	skipIfShort(t)
	c, err := NewClient("v1", smallSpec(), clientSeries(150, 0, 8), 12, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeClient(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A Hello frame from protocol v42.
	if _, err := conn.Write([]byte{'E', 'V', 42, byte(wire.MsgHello), 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	wc := wire.NewConn(conn)
	fr, err := wc.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Type != wire.MsgError {
		t.Fatalf("want MsgError, got type %d", fr.Type)
	}
	e, err := wire.ParseError(fr.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.ErrCodeVersion || e.PeerVersion != wire.Version {
		t.Fatalf("error frame %+v", e)
	}
	if _, err := wc.ReadFrame(); err != io.EOF {
		t.Fatalf("station should close after version error, got %v", err)
	}
}

// Persistent connections: consecutive calls reuse one TCP connection, a
// server-side idle reap is healed by a transparent re-dial, and the byte
// counters match the exact modeled frame sizes.
func TestTransportPersistentConnectionReuse(t *testing.T) {
	skipIfShort(t)
	c, err := NewClient("persist", smallSpec(), clientSeries(150, 0, 9), 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeClient(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	rc := NewRemoteClient("persist", srv.Addr())
	defer rc.Close()
	global, err := freshWeights(t)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LocalTrainConfig{Epochs: 1, BatchSize: 16, LearningRate: 0.005}
	if _, err := rc.NumSamples(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		cfg.Round = round
		if _, err := rc.Train(global, cfg); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if got := srv.acceptedConns(); got != 1 {
		t.Fatalf("expected one persistent connection, server accepted %d", got)
	}
}

func TestTransportReconnectsAfterIdleReap(t *testing.T) {
	skipIfShort(t)
	c, err := NewClient("reap", smallSpec(), clientSeries(150, 0, 10), 12, 10)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeClientConfig(c, "127.0.0.1:0", ServerConfig{RequestTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	rc := NewRemoteClient("reap", srv.Addr())
	rc.MaxRetries = 0 // the stale-connection redial must not need the retry budget
	defer rc.Close()
	if _, err := rc.NumSamples(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // server reaps the idle connection
	if _, err := rc.NumSamples(); err != nil {
		t.Fatalf("transparent re-dial failed: %v", err)
	}
	if got := srv.acceptedConns(); got != 2 {
		t.Fatalf("expected a re-dial after idle reap, server accepted %d connections", got)
	}
}

func TestTransportTrafficCountersMatchModel(t *testing.T) {
	skipIfShort(t)
	c, err := NewClient("count", smallSpec(), clientSeries(150, 0, 11), 12, 11)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeClient(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	global, err := freshWeights(t)
	if err != nil {
		t.Fatal(err)
	}
	dim := len(global)
	for _, codec := range []Codec{CodecNone, CodecF32, CodecQ8} {
		rc := NewRemoteClient("count", srv.Addr())
		cfg := LocalTrainConfig{Epochs: 1, BatchSize: 16, LearningRate: 0.005, Codec: codec}
		// Two rounds: the delta codec's second round exercises the q8
		// downlink.
		for round := 0; round < 2; round++ {
			cfg.Round = round
			if _, err := rc.Train(global, cfg); err != nil {
				t.Fatalf("%v round %d: %v", codec, round, err)
			}
		}
		rc.Close()
		sent, recv := rc.Traffic()
		wantSent := uint64(wireTrainBytes(codec, dim, true) + wireTrainBytes(codec, dim, false))
		wantRecv := uint64(2 * wireTrainOKBytes(codec, dim, len("count")))
		if sent != wantSent {
			t.Fatalf("%v: sent %d bytes, model says %d", codec, sent, wantSent)
		}
		if recv != wantRecv {
			t.Fatalf("%v: received %d bytes, model says %d", codec, recv, wantRecv)
		}
	}
}

// End-to-end delta quantization over TCP: two identical stations, one
// trained through the q8 wire path and one uncompressed, must land close
// together — and the q8 station's second round must decode cleanly from
// a delta-coded broadcast.
func TestTransportQ8DeltaRoundTrip(t *testing.T) {
	skipIfShort(t)
	mk := func() (*ClientServer, *RemoteClient) {
		c, err := NewClient("q8", smallSpec(), clientSeries(150, 0, 12), 12, 12)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := ServeClient(c, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		return srv, NewRemoteClient("q8", srv.Addr())
	}
	_, plain := mk()
	_, quant := mk()
	defer plain.Close()
	defer quant.Close()

	g0, err := freshWeights(t)
	if err != nil {
		t.Fatal(err)
	}
	var uPlain, uQuant Update
	for round := 0; round < 2; round++ {
		cfg := LocalTrainConfig{Epochs: 2, BatchSize: 16, LearningRate: 0.005, Round: round}
		if uPlain, err = plain.Train(g0, cfg); err != nil {
			t.Fatal(err)
		}
		cfg.Codec = CodecQ8
		if uQuant, err = quant.Train(g0, cfg); err != nil {
			t.Fatal(err)
		}
	}
	var maxDiff float64
	for i := range uPlain.Weights {
		if !(math.IsInf(uQuant.Weights[i], 0) || math.IsNaN(uQuant.Weights[i])) {
			maxDiff = math.Max(maxDiff, math.Abs(uPlain.Weights[i]-uQuant.Weights[i]))
			continue
		}
		t.Fatalf("q8 update not finite at %d: %v", i, uQuant.Weights[i])
	}
	if maxDiff > 0.05 {
		t.Fatalf("q8 wire path diverged from uncompressed: max |Δw| = %v", maxDiff)
	}
	if maxDiff == 0 {
		t.Fatal("q8 path identical to uncompressed — quantization apparently not applied")
	}
}
