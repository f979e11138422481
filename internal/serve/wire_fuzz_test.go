package serve

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/evfed/evfed/internal/fed/wire"
)

// FuzzWireServe feeds arbitrary bytes to a WireServer connection over
// net.Pipe, as a producer or a coordinator on the scoring port would. No
// input may panic; the server returns once the peer closes; after
// Service.Close no goroutine is left behind; and a well-formed frame of a
// retired type (14–17), or a MsgScore header over wire.MaxScorePayload,
// is answered with ErrCodeBadRequest.
func FuzzWireServe(f *testing.F) {
	frame := func(t wire.MsgType, build func([]byte) ([]byte, error)) []byte {
		var buf bytes.Buffer
		if err := wire.NewConn(&buf).WriteFrame(t, build); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	weights := perturbedWeights(f, 61)
	vec := []float64{0.25, -1.5, 3.75, 0}
	f.Add(frame(wire.MsgScore, func(b []byte) ([]byte, error) {
		return wire.AppendScore(b, "z102", testSeries(testSeqLen+2, 5))
	}))
	f.Add(frame(wire.MsgReload, func(b []byte) ([]byte, error) {
		return wire.AppendVector(wire.AppendReload(b, 0.03), wire.VecF32, weights, nil, nil)
	}))
	f.Add(frame(wire.MsgCanaryPush, func(b []byte) ([]byte, error) {
		return wire.AppendVector(wire.AppendReload(b, 0), wire.VecF64, weights, nil, nil)
	}))
	// Types the scoring service does not serve, answered as bad requests.
	f.Add(frame(wire.MsgHello, nil))
	f.Add(frame(wire.MsgProbe, nil))
	f.Add(frame(wire.MsgTrain, func(b []byte) ([]byte, error) {
		b = wire.AppendTrain(b, wire.Train{Round: 1, Epochs: 1, BatchSize: 4, LearningRate: 1e-3})
		return wire.AppendVector(b, wire.VecF64, vec, nil, nil)
	}))
	f.Add(frame(wire.MsgScoreOK, func(b []byte) ([]byte, error) {
		return wire.AppendScoreOK(b, []wire.ScoreVerdict{{Index: 3, Flags: wire.VerdictReady, Epoch: 1, Score: 0.5}})
	}))
	f.Add(frame(wire.MsgReloadOK, func(b []byte) ([]byte, error) { return wire.AppendReloadOK(b, 2) }))
	f.Add(frame(wire.MsgCanaryPushOK, func(b []byte) ([]byte, error) { return wire.AppendCanaryPushOK(b, 1) }))
	f.Add(frame(wire.MsgError, func(b []byte) ([]byte, error) {
		return wire.AppendError(b, wire.ErrorMsg{Code: wire.ErrCodeApp, PeerVersion: wire.Version, Text: "x"})
	}))
	// A retired operator override (type 16: op + reason).
	f.Add(frame(16, func(b []byte) ([]byte, error) { return append(b, 2, 2, 0, 'n', 'o'), nil }))
	// Two scores on one connection, then a q8 reload that has no reference.
	f.Add(append(frame(wire.MsgScore, func(b []byte) ([]byte, error) {
		return wire.AppendScore(b, "a", vec)
	}), frame(wire.MsgReload, func(b []byte) ([]byte, error) {
		return wire.AppendVector(wire.AppendReload(b, 0), wire.VecQ8, weights, make([]float64, len(weights)), nil)
	})...))
	f.Add([]byte("GET /score HTTP/1.1\r\n\r\n"))
	// One point over the per-frame cap.
	f.Add(frame(wire.MsgScore, func(b []byte) ([]byte, error) { return overCapScore(b, "z102"), nil }))
	// A bare header claiming one byte over the score payload cap.
	f.Add(scoreHeader(wire.MaxScorePayload + 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		baseline := runtime.NumGoroutine()
		s := newTestService(t, Config{Shards: 1, Rollout: testRollout()})
		ws := newWireServer(s)
		srv, cli := net.Pipe()
		handled := make(chan struct{})
		go func() {
			defer close(handled)
			ws.srv.ServeConn(srv)
		}()
		var first wire.Frame
		replies := make(chan int)
		go func() {
			wc, n := wire.NewConn(cli), 0
			for {
				fr, err := wc.ReadFrame()
				if err != nil {
					replies <- n
					return
				}
				if n == 0 {
					first = fr
					first.Payload = append([]byte(nil), fr.Payload...)
				}
				n++
			}
		}()
		written := make(chan struct{})
		go func() {
			defer close(written)
			_, _ = cli.Write(data)
		}()

		refused := refusedFrame(data)
		if refused {
			// The server answers and hangs up by itself.
			select {
			case <-handled:
			case <-time.After(5 * time.Second):
				t.Fatal("server kept a refused connection open")
			}
		}
		<-written
		cli.Close()
		select {
		case <-handled:
		case <-time.After(5 * time.Second):
			t.Fatal("handler did not return after the peer closed")
		}
		n := <-replies
		s.Close()

		if refused {
			if n == 0 || first.Type != wire.MsgError {
				t.Fatalf("refused type %d: %d replies, first type %d", data[3], n, first.Type)
			}
			e, err := wire.ParseError(first.Payload)
			if err != nil || e.Code != wire.ErrCodeBadRequest {
				t.Fatalf("refused type %d: error %+v, %v", data[3], e, err)
			}
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines after Close, %d before New:\n%s",
					runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// refusedFrame reports whether data opens with a current-revision header
// the server must refuse whatever follows it: a retired canary status or
// override type (a payload over its cap of 0, or an empty frame), or a
// MsgScore claiming more than wire.MaxScorePayload.
func refusedFrame(data []byte) bool {
	if len(data) < wire.HeaderBytes || data[0] != 'E' || data[1] != 'V' || data[2] != wire.Version {
		return false
	}
	size := binary.LittleEndian.Uint32(data[4:8])
	return data[3] >= 14 && data[3] <= 17 ||
		wire.MsgType(data[3]) == wire.MsgScore && size > wire.MaxScorePayload
}

// scoreHeader is a bare MsgScore frame header claiming size payload bytes.
func scoreHeader(size int) []byte {
	hdr := []byte{'E', 'V', wire.Version, byte(wire.MsgScore), 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[4:], uint32(size))
	return hdr
}
