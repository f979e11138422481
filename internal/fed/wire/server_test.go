package wire

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// probeServer starts a Server that answers MsgProbe with a ProbeOK of 7
// and counts accepted connections and handled frames.
func probeServer(t *testing.T, accepted, handled *atomic.Int32) *Server {
	t.Helper()
	s := &Server{
		Name: "test server",
		Wrap: func(c net.Conn) net.Conn {
			accepted.Add(1)
			return c
		},
		MaxPayload: func(MsgType) int { return 0 },
		NewHandler: func() Handler {
			return func(c *Conn, fr Frame) bool {
				handled.Add(1)
				return c.WriteFrame(MsgProbeOK, func(b []byte) ([]byte, error) {
					return AppendProbeOK(b, ProbeOK{NumSamples: 7})
				}) == nil
			}
		},
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return s
}

// stopWithin runs Stop and fails the test if it does not return in time.
func stopWithin(t *testing.T, s *Server, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		s.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("Stop did not return")
	}
}

// settleGoroutines fails the test unless the goroutine count falls back
// to baseline.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Stop, %d before Listen:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerStopRacesDials: Stop lands in the middle of a burst of dials
// that each send a request. Every dial is either served or dropped, Stop
// returns, and no server goroutine outlives it. Run under -race, it checks
// that tracking a fresh connection never races Stop's join.
func TestServerStopRacesDials(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var accepted, handled atomic.Int32
	s := probeServer(t, &accepted, &handled)
	const dialers = 16
	var wg sync.WaitGroup
	wg.Add(dialers)
	for i := 0; i < dialers; i++ {
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				return // the listener already closed
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			c := NewConn(conn)
			if c.WriteFrame(MsgProbe, nil) == nil {
				_, _ = c.ReadFrame()
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); accepted.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no dial was accepted")
		}
		runtime.Gosched()
	}
	stopWithin(t, s, 5*time.Second)
	wg.Wait()
	settleGoroutines(t, baseline)
	if handled.Load() > accepted.Load() {
		t.Fatalf("%d frames handled on %d accepted connections", handled.Load(), accepted.Load())
	}
}

// TestServerStopClosesStalledConns: peers that sent half a header and
// went quiet do not hold Stop up, and every server goroutine exits.
func TestServerStopClosesStalledConns(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var accepted, handled atomic.Int32
	s := probeServer(t, &accepted, &handled)
	const stalled = 8
	for i := 0; i < stalled; i++ {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte{'E', 'V', Version, byte(MsgProbe)}); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); accepted.Load() < stalled; {
		if time.Now().After(deadline) {
			t.Fatalf("server accepted %d of %d connections", accepted.Load(), stalled)
		}
		time.Sleep(time.Millisecond)
	}
	stopWithin(t, s, 5*time.Second)
	settleGoroutines(t, baseline)
	if n := handled.Load(); n != 0 {
		t.Fatalf("handler ran %d times on half headers", n)
	}
}

// TestServerAnswersVersionSkew: a frame from another protocol revision
// gets an ErrCodeVersion MsgError carrying this end's revision, never
// reaches the handler, and the server closes the connection.
func TestServerAnswersVersionSkew(t *testing.T) {
	var accepted, handled atomic.Int32
	s := probeServer(t, &accepted, &handled)
	defer s.Stop()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{'E', 'V', Version + 1, byte(MsgProbe), 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	c := NewConn(conn)
	fr, err := c.ReadFrame()
	if err != nil || fr.Type != MsgError {
		t.Fatalf("frame %+v, err %v", fr, err)
	}
	e, err := ParseError(fr.Payload)
	if err != nil || e.Code != ErrCodeVersion || e.PeerVersion != Version {
		t.Fatalf("error %+v, err %v", e, err)
	}
	if _, err := c.ReadFrame(); err != io.EOF {
		t.Fatalf("server should close after the version error, got %v", err)
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("handler ran %d times on a skewed frame", n)
	}
}

// TestServerRefusesOverCapHeader: a header claiming more than its type's
// cap is answered with ErrCodeBadRequest from the header alone — the
// peer never sends the payload — and never reaches the handler.
func TestServerRefusesOverCapHeader(t *testing.T) {
	var accepted, handled atomic.Int32
	s := probeServer(t, &accepted, &handled)
	defer s.Stop()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hdr := []byte{'E', 'V', Version, byte(MsgProbe), 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[4:], 1)
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr, err := NewConn(conn).ReadFrame()
	if err != nil || fr.Type != MsgError {
		t.Fatalf("frame %+v, err %v", fr, err)
	}
	if e, err := ParseError(fr.Payload); err != nil || e.Code != ErrCodeBadRequest {
		t.Fatalf("error %+v, err %v", e, err)
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("handler ran %d times on an over-cap header", n)
	}
}
