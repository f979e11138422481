// Package chaos injects seeded, policy-driven network and process faults
// for recovery testing: connection drops, read/write stalls, added
// latency with jitter, byte corruption, partition windows, and named
// process-crash hooks.
//
// The package wraps net.Conn behind the dial and accept seams the
// federation tier already exposes (a nil wrap function leaves the
// production path untouched, so disabled chaos costs nothing). Every
// fault decision is drawn from one seeded generator, so a chaos run is
// deterministic for a given policy — the recovery scenario matrix in
// internal/eval depends on that to compare faulty runs against
// fault-free baselines bit-for-bit.
package chaos

import (
	"errors"
	"net"
	"sync"
	"time"

	"github.com/evfed/evfed/internal/rng"
)

// ErrInjected marks an IO failure injected by a chaos policy (connection
// drop or partition window). Transports treat it like any transport
// error: the connection is dead, retry ladders and re-dials apply.
var ErrInjected = errors.New("chaos: injected fault")

// ErrCrash marks an injected process crash from a named crash point. A
// coordinator whose CrashPoint hook returns it aborts exactly as if the
// process had died at that instant — the recovery tests then resume from
// the last durable checkpoint.
var ErrCrash = errors.New("chaos: injected crash")

// Policy declares which faults an Injector applies and how often. All
// probabilities are per IO operation (one Read or Write call). The zero
// value injects nothing.
type Policy struct {
	// Seed drives every fault decision; runs are deterministic per seed.
	Seed uint64
	// DropProb closes the connection mid-operation: the op returns
	// ErrInjected and every later op on that conn fails.
	DropProb float64
	// StallProb delays an operation by StallFor before it proceeds.
	StallProb float64
	StallFor  time.Duration
	// Latency (+ uniform Jitter) is added to every operation.
	Latency time.Duration
	Jitter  time.Duration
	// CorruptProb flips one random byte of the buffer: on Write before
	// the bytes leave, on Read after they arrive.
	CorruptProb float64
	// PartitionAfter/PartitionFor open a partition window relative to the
	// injector's creation: operations and dials inside the window fail
	// with ErrInjected (both zero = no partition).
	PartitionAfter time.Duration
	PartitionFor   time.Duration
	// GraceOps exempts the injector's first N IO operations from faults —
	// delayed onset, so handshakes and preflight complete before the
	// gremlin arrives. Latency/Jitter still apply during the grace window.
	GraceOps int
}

// Injector applies a Policy to connections and dialers. One
// injector models one fault domain (e.g. "the links to station 3"); its
// seeded RNG is shared by every wrapped connection under a mutex, so
// concurrent connections interleave draws but a single-connection
// scenario is fully deterministic.
type Injector struct {
	policy Policy
	start  time.Time

	mu  sync.Mutex
	rng *rng.Source
	ops int

	drops    int
	stalls   int
	corrupts int
}

// New builds an injector for the policy.
func New(policy Policy) *Injector {
	return &Injector{policy: policy, start: time.Now(), rng: rng.New(policy.Seed)}
}

// Counts reports how many faults the injector has fired (drops include
// partition-window rejections).
func (in *Injector) Counts() (drops, stalls, corrupts int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.drops, in.stalls, in.corrupts
}

// partitioned reports whether now falls inside the partition window.
func (in *Injector) partitioned() bool {
	if in.policy.PartitionFor <= 0 {
		return false
	}
	since := time.Since(in.start)
	return since >= in.policy.PartitionAfter && since < in.policy.PartitionAfter+in.policy.PartitionFor
}

// fault draws one operation's fate. It returns the injected error (nil =
// proceed), a stall to sleep, and the index of a byte to corrupt (-1 =
// none) for a buffer of length n.
func (in *Injector) fault(n int) (err error, stall time.Duration, corrupt int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	corrupt = -1
	in.ops++
	if in.ops <= in.policy.GraceOps {
		p := in.policy
		if p.Latency > 0 || p.Jitter > 0 {
			stall = p.Latency + time.Duration(in.rng.Float64()*float64(p.Jitter))
		}
		return nil, stall, -1
	}
	if in.partitioned() {
		in.drops++
		return ErrInjected, 0, -1
	}
	p := in.policy
	if p.DropProb > 0 && in.rng.Bernoulli(p.DropProb) {
		in.drops++
		return ErrInjected, 0, -1
	}
	if p.StallProb > 0 && in.rng.Bernoulli(p.StallProb) {
		in.stalls++
		stall += p.StallFor
	}
	if p.Latency > 0 || p.Jitter > 0 {
		stall += p.Latency + time.Duration(in.rng.Float64()*float64(p.Jitter))
	}
	if p.CorruptProb > 0 && n > 0 && in.rng.Bernoulli(p.CorruptProb) {
		in.corrupts++
		corrupt = in.rng.Intn(n)
	}
	return nil, stall, corrupt
}

// WrapConn applies the policy to every Read/Write on conn. A nil
// receiver returns conn untouched, so callers can thread an optional
// injector without branching.
func (in *Injector) WrapConn(conn net.Conn) net.Conn {
	if in == nil {
		return conn
	}
	return &chaosConn{Conn: conn, in: in}
}

// ConnWrapper returns the WrapConn seam as a plain function, or nil for
// a nil injector — the form the transport seams accept.
func (in *Injector) ConnWrapper() func(net.Conn) net.Conn {
	if in == nil {
		return nil
	}
	return in.WrapConn
}

// Dialer wraps a dial function so dialing fails inside partition windows
// and established connections carry the policy. base dials the real
// connection (e.g. net.DialTimeout over tcp).
func (in *Injector) Dialer(base func(addr string, timeout time.Duration) (net.Conn, error)) func(addr string, timeout time.Duration) (net.Conn, error) {
	if in == nil {
		return base
	}
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		in.mu.Lock()
		cut := in.partitioned()
		if cut {
			in.drops++
		}
		in.mu.Unlock()
		if cut {
			return nil, ErrInjected
		}
		conn, err := base(addr, timeout)
		if err != nil {
			return nil, err
		}
		return in.WrapConn(conn), nil
	}
}

// chaosConn applies the injector's per-operation faults around a conn.
type chaosConn struct {
	net.Conn
	in *Injector
}

func (c *chaosConn) apply(b []byte, inject bool) error {
	err, stall, corrupt := c.in.fault(len(b))
	if err != nil {
		c.Conn.Close()
		return err
	}
	if stall > 0 {
		time.Sleep(stall)
	}
	if inject && corrupt >= 0 {
		b[corrupt] ^= 0xff
	}
	return nil
}

func (c *chaosConn) Read(b []byte) (int, error) {
	if err := c.apply(nil, false); err != nil {
		return 0, err
	}
	n, err := c.Conn.Read(b)
	if n > 0 {
		// Corruption is drawn against the bytes actually received.
		if at := c.in.corruptAt(n); at >= 0 {
			b[at] ^= 0xff
		}
	}
	return n, err
}

// corruptAt draws a read-side corruption index for n received bytes,
// honoring the grace window (-1 = leave the buffer alone).
func (in *Injector) corruptAt(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if n <= 0 || in.ops <= in.policy.GraceOps || in.policy.CorruptProb <= 0 ||
		!in.rng.Bernoulli(in.policy.CorruptProb) {
		return -1
	}
	in.corrupts++
	return in.rng.Intn(n)
}

func (c *chaosConn) Write(b []byte) (int, error) {
	// The write buffer belongs to the caller (and is reused by the wire
	// framing), so corruption happens on a copy.
	err, stall, corrupt := c.in.fault(len(b))
	if err != nil {
		c.Conn.Close()
		return 0, err
	}
	if stall > 0 {
		time.Sleep(stall)
	}
	if corrupt >= 0 {
		tmp := make([]byte, len(b))
		copy(tmp, b)
		tmp[corrupt] ^= 0xff
		return c.Conn.Write(tmp)
	}
	return c.Conn.Write(b)
}

// CrashOnce returns a crash-point hook that injects ErrCrash the nth time
// (1-based) the named point is reached, and passes every other point
// through. It is the standard way to kill a coordinator "between
// aggregate and checkpoint": install it as fed.Config.CrashPoint with the
// point name and the round count to survive first.
func CrashOnce(point string, n int) func(string) error {
	if n < 1 {
		n = 1
	}
	hits := 0
	return func(p string) error {
		if p != point {
			return nil
		}
		hits++
		if hits == n {
			return ErrCrash
		}
		return nil
	}
}
