package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Handler answers one request frame on a connection, writing its reply
// through c. It reports whether the connection should keep serving.
type Handler func(c *Conn, fr Frame) bool

// Server is the TCP lifecycle every binary-wire endpoint shares (a
// federation station or edge, the scoring service). It tracks accepted
// connections so Stop can close and join them, answers a frame from
// another protocol revision with ErrCodeVersion, refuses a header over
// its type's payload cap with ErrCodeBadRequest before reading the
// payload, and hands every other frame to the connection's Handler. Set
// the fields, then call Listen; they must not change afterwards.
type Server struct {
	Name string // names this end in the version-skew reply
	// Timeout bounds waiting for each request frame and, separately,
	// writing each reply (0 = none); it doubles as the idle reap. Handler
	// work between the two is unbounded.
	Timeout time.Duration
	// Wrap, if set, wraps every accepted connection (the chaos fault
	// injector's seam, chaos.Injector.ConnWrapper).
	Wrap func(net.Conn) net.Conn
	// MaxPayload caps a current-revision frame's payload by type (nil:
	// MaxFrameBytes for every type).
	MaxPayload func(t MsgType) int
	// NewHandler returns one new connection's Handler, whose closure
	// holds the connection's state.
	NewHandler func() Handler

	ln     net.Listener
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// Listen binds addr (":0" for an ephemeral port) and starts accepting
// in the background. Stop releases the listener.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln, s.conns = ln, make(map[net.Conn]struct{})
	s.wg.Add(1)
	go s.accept()
	return nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stop closes the listener and every open connection, then joins every
// goroutine. A handler busy with local work finishes it first.
func (s *Server) Stop() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.ln.Close()
		for c := range s.conns {
			c.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if s.Wrap != nil {
			conn = s.Wrap(conn)
		}
		// Tracked under the mutex Stop takes before wg.Wait, so wg.Add
		// never races wg.Wait: Stop either closes the connection or has
		// already run, and the connection is dropped here.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// ServeConn serves frames on conn (an accepted connection, or one end
// of a net.Pipe) until the peer closes, a deadline expires, a frame is
// not this protocol, or the handler ends it; then it closes conn.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	c := NewConn(conn)
	c.nc, c.timeout = conn, s.Timeout
	h := s.NewHandler()
	for {
		fr, err := c.readFrame(s.MaxPayload)
		if errors.Is(err, ErrFrameTooLarge) {
			_ = c.WriteError(ErrCodeBadRequest, err.Error())
			return
		}
		if err != nil {
			return // EOF, reaped by the deadline, or not this protocol
		}
		if fr.Version != Version { // version negotiation
			_ = c.WriteError(ErrCodeVersion, fmt.Sprintf("%s speaks protocol v%d, got v%d", s.Name, Version, fr.Version))
			return
		}
		if !h(c, fr) {
			return
		}
	}
}
