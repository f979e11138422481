package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipeConns returns a connected in-memory pair.
func pipeConns() (net.Conn, net.Conn) { return net.Pipe() }

func TestNilInjectorIsPassthrough(t *testing.T) {
	var in *Injector
	a, b := pipeConns()
	defer a.Close()
	defer b.Close()
	if got := in.WrapConn(a); got != a {
		t.Fatalf("nil injector wrapped the conn: %T", got)
	}
	if in.ConnWrapper() != nil {
		t.Fatal("nil injector returned a non-nil wrapper")
	}
	base := func(addr string, timeout time.Duration) (net.Conn, error) { return a, nil }
	if got := in.Dialer(base); got == nil {
		t.Fatal("nil injector returned nil dialer")
	}
}

func TestZeroPolicyInjectsNothing(t *testing.T) {
	in := New(Policy{Seed: 1})
	a, b := pipeConns()
	wa := in.WrapConn(a)
	defer wa.Close()
	defer b.Close()

	msg := []byte("hello, station")
	go func() {
		wa.Write(msg)
	}()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("payload altered under zero policy: %q", buf)
	}
	d, s, c := in.Counts()
	if d+s+c != 0 {
		t.Fatalf("zero policy fired faults: drops=%d stalls=%d corrupts=%d", d, s, c)
	}
}

func TestDropClosesConnection(t *testing.T) {
	in := New(Policy{Seed: 7, DropProb: 1})
	a, b := pipeConns()
	wa := in.WrapConn(a)
	defer b.Close()

	if _, err := wa.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	// The underlying connection is dead too.
	if _, err := a.Write([]byte("x")); err == nil {
		t.Fatal("underlying conn still writable after injected drop")
	}
	d, _, _ := in.Counts()
	if d == 0 {
		t.Fatal("drop not counted")
	}
}

func TestCorruptionFlipsOneByteOnACopy(t *testing.T) {
	in := New(Policy{Seed: 3, CorruptProb: 1})
	a, b := pipeConns()
	wa := in.WrapConn(a)
	defer wa.Close()
	defer b.Close()

	orig := []byte{0, 1, 2, 3, 4, 5, 6, 7}
	sent := append([]byte(nil), orig...)
	go wa.Write(sent)
	buf := make([]byte, len(orig))
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	diff := 0
	for i := range buf {
		if buf[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("want exactly 1 corrupted byte on the wire, got %d", diff)
	}
	if !bytes.Equal(sent, orig) {
		t.Fatal("caller's write buffer was mutated")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []bool {
		in := New(Policy{Seed: seed, DropProb: 0.5})
		var fates []bool
		for i := 0; i < 64; i++ {
			err, _, _ := in.fault(0)
			fates = append(fates, err != nil)
		}
		return fates
	}
	a1, a2, b := run(11), run(11), run(12)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	same := true
	for i := range a1 {
		if a1[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault streams")
	}
}

func TestStallDelaysOperation(t *testing.T) {
	in := New(Policy{Seed: 5, StallProb: 1, StallFor: 30 * time.Millisecond})
	a, b := pipeConns()
	wa := in.WrapConn(a)
	defer wa.Close()
	defer b.Close()

	go func() {
		buf := make([]byte, 1)
		io.ReadFull(b, buf)
	}()
	start := time.Now()
	if _, err := wa.Write([]byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("stall not applied: write returned in %v", el)
	}
	_, s, _ := in.Counts()
	if s == 0 {
		t.Fatal("stall not counted")
	}
}

func TestPartitionWindowCutsDials(t *testing.T) {
	in := New(Policy{Seed: 9, PartitionAfter: 0, PartitionFor: time.Hour})
	dial := in.Dialer(func(addr string, timeout time.Duration) (net.Conn, error) {
		t.Fatal("base dialer reached inside partition window")
		return nil, nil
	})
	if _, err := dial("127.0.0.1:1", time.Second); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected inside partition, got %v", err)
	}
}

func TestCrashOnce(t *testing.T) {
	hook := CrashOnce("after-aggregate", 2)
	if err := hook("other-point"); err != nil {
		t.Fatalf("unrelated point crashed: %v", err)
	}
	if err := hook("after-aggregate"); err != nil {
		t.Fatalf("hit 1 of 2 crashed early: %v", err)
	}
	if err := hook("after-aggregate"); !errors.Is(err, ErrCrash) {
		t.Fatalf("want ErrCrash on hit 2, got %v", err)
	}
	if err := hook("after-aggregate"); err != nil {
		t.Fatalf("hook kept crashing after the injected crash: %v", err)
	}
}

// TestGraceOpsDelaysOnset: the first GraceOps operations are fault-free,
// the very next one is eligible.
func TestGraceOpsDelaysOnset(t *testing.T) {
	inj := New(Policy{Seed: 1, DropProb: 1, GraceOps: 3})
	for i := 0; i < 3; i++ {
		if err, _, _ := inj.fault(8); err != nil {
			t.Fatalf("op %d faulted inside the grace window: %v", i, err)
		}
	}
	if err, _, _ := inj.fault(8); err == nil {
		t.Fatal("first post-grace op did not fault despite DropProb=1")
	}
	drops, _, _ := inj.Counts()
	if drops != 1 {
		t.Fatalf("drops = %d, want 1", drops)
	}
}
