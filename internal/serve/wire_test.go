package serve

import (
	"encoding/binary"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"github.com/evfed/evfed/internal/fed/wire"
)

// TestWireScoreRoundTrip: a producer scores a station batch over TCP and
// gets verdicts identical to a direct in-process service over the same
// model.
func TestWireScoreRoundTrip(t *testing.T) {
	s := newTestService(t, Config{Shards: 2, Mitigate: true})
	ws, err := ListenWire(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Stop()

	values := attackSeries(120, 59, 19)
	ref := collect(t, newTestService(t, Config{Shards: 1, Mitigate: true}), "z", values)

	c, err := DialWire(ws.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Two frames over one persistent connection: the second continues the
	// first's stream.
	half := len(values) / 2
	var got []wire.ScoreVerdict
	for _, chunk := range [][]float64{values[:half], values[half:]} {
		vs, err := c.Score("z102", chunk)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, append([]wire.ScoreVerdict(nil), vs...)...)
	}
	if len(got) != len(values) {
		t.Fatalf("%d verdicts for %d observations", len(got), len(values))
	}
	flagged := 0
	for i, v := range got {
		if int(v.Index) != i {
			t.Fatalf("verdict %d has index %d", i, v.Index)
		}
		want := ref[i]
		if (v.Flags&wire.VerdictReady != 0) != want.Ready ||
			(v.Flags&wire.VerdictFlagged != 0) != want.Flagged ||
			math.Abs(v.Score-want.Score) > 1e-12 ||
			math.Abs(v.Mitigated-want.Mitigated) > 1e-12 {
			t.Fatalf("verdict %d: wire %+v, direct %+v", i, v, want)
		}
		if v.Flags&wire.VerdictFlagged != 0 {
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("no flagged verdicts round-tripped")
	}
}

// TestWireReload: reload frames hot-swap the model (f64 and f32
// encodings), bad pushes are rejected with typed remote errors, and
// delta-coded pushes fail by design.
func TestWireReload(t *testing.T) {
	s := newTestService(t, Config{Shards: 1})
	ws, err := ListenWire(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Stop()

	w := perturbedWeights(t, 21)
	epoch, err := PushReload(ws.Addr(), w, 0, wire.VecF64, 5*time.Second)
	if err != nil || epoch != 2 {
		t.Fatalf("push reload: epoch %d, err %v", epoch, err)
	}
	c, err := DialWire(ws.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if epoch, err = c.Reload(w, s.Threshold()*1.5, wire.VecF32); err != nil || epoch != 3 {
		t.Fatalf("f32 reload: epoch %d, err %v", epoch, err)
	}
	// Connection survives an application-level rejection (wrong dim).
	if _, err = c.Reload(w[:10], 0, wire.VecF64); err == nil || !strings.Contains(err.Error(), "remote") {
		t.Fatalf("short reload: %v", err)
	}
	if epoch, err = c.Reload(w, 0, wire.VecF64); err != nil || epoch != 4 {
		t.Fatalf("reload after rejection: epoch %d, err %v", epoch, err)
	}
	// Delta-coded reloads carry no reference and must be rejected.
	if _, err = c.Reload(w, 0, wire.VecQ8); err == nil {
		t.Fatal("q8 reload accepted")
	}
	if s.Epoch() != 4 {
		t.Fatalf("serving epoch %d", s.Epoch())
	}
}

// TestWireCanaryControl: MsgCanaryPush stages a candidate over the wire
// without an epoch bump, restages under f32 on one persistent connection
// and rejects NaN weights without closing it. Operator overrides and
// status are the in-process API (HTTP /promote, /rollback and /rollout
// front it; TestHTTPRollout).
func TestWireCanaryControl(t *testing.T) {
	s := newTestService(t, Config{Shards: 1, Rollout: testRollout()})
	ws, err := ListenWire(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Stop()

	w := perturbedWeights(t, 31)
	gen, err := PushCanary(ws.Addr(), w, 0, wire.VecF64, 5*time.Second)
	if err != nil || gen != 1 {
		t.Fatalf("push canary: gen %d, err %v", gen, err)
	}
	if s.Epoch() != 1 {
		t.Fatalf("staging swapped the live model: epoch %d", s.Epoch())
	}
	if st := s.Rollout(); st.Phase != PhaseShadow.String() || st.Gen != 1 || st.ServingEpoch != 1 {
		t.Fatalf("status %+v", st)
	}
	epoch, err := s.Promote()
	if err != nil || epoch != 2 || s.Epoch() != 2 {
		t.Fatalf("promote: epoch %d, err %v", epoch, err)
	}
	if err = s.Rollback("nothing staged"); err == nil {
		t.Fatal("rollback without a candidate succeeded")
	}

	c, err := DialWire(ws.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if gen, err = c.StageCanary(w, 0, wire.VecF32); err != nil || gen != 2 {
		t.Fatalf("restage: gen %d, err %v", gen, err)
	}
	// NaN weights are rejected at staging without killing the connection.
	bad := append([]float64(nil), w...)
	bad[1] = math.NaN()
	if _, err = c.StageCanary(bad, 0, wire.VecF64); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN stage: %v", err)
	}
	if _, err = c.Score("z102", []float64{0.5}); err != nil {
		t.Fatalf("score after a rejected stage: %v", err)
	}

	if err = s.Rollback("operator says no"); err != nil || s.Epoch() != 2 {
		t.Fatalf("rollback: epoch %d, err %v", s.Epoch(), err)
	}
	if st := s.Rollout(); st.Phase != PhaseNone.String() || st.LastOutcome != OutcomeRolledBack ||
		st.LastReason != "operator says no" || st.Promotions != 1 || st.Rollbacks != 1 {
		t.Fatalf("final status %+v", st)
	}
}

// TestWireBadPeer: a non-protocol peer and a version-skewed frame both
// get typed rejections, not hangs.
func TestWireBadPeer(t *testing.T) {
	s := newTestService(t, Config{Shards: 1})
	ws, err := ListenWire(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Stop()

	// Garbage magic: server just drops the connection.
	conn, err := net.Dial("tcp", ws.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected drop for non-protocol peer")
	}
	conn.Close()

	// Version skew: typed MsgError with the server's revision.
	conn, err = net.Dial("tcp", ws.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := []byte{'E', 'V', wire.Version + 1, byte(wire.MsgScore), 0, 0, 0, 0}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	wc := wire.NewConn(conn)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	fr, err := wc.ReadFrame()
	if err != nil || fr.Type != wire.MsgError {
		t.Fatalf("frame %+v, err %v", fr, err)
	}
	e, err := wire.ParseError(fr.Payload)
	if err != nil || e.Code != wire.ErrCodeVersion || e.PeerVersion != wire.Version {
		t.Fatalf("error %+v, err %v", e, err)
	}
}

// TestWireEvictedStationRestarts: a station evicted between two MsgScore
// frames on one connection restarts at index 0, and the connection does
// not keep the evicted station alive while its producer streams other
// names.
func TestWireEvictedStationRestarts(t *testing.T) {
	s := newTestService(t, Config{Shards: 1, IdleTTL: 5 * time.Millisecond})
	ws, err := ListenWire(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Stop()
	c, err := DialWire(ws.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	score := func(station string, want uint64) {
		t.Helper()
		vs, err := c.Score(station, []float64{0.5})
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 1 || vs[0].Index != want {
			t.Fatalf("station %s: verdicts %+v, want index %d", station, vs, want)
		}
	}
	score("churn-a", 0)
	v, ok := s.stations.Load("churn-a")
	if !ok {
		t.Fatal("station not registered")
	}
	old := weak.Make(v.(*station))
	v = nil
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := s.stations.Load("churn-a"); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("station never evicted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Another name through the same shard overwrites the shard's drain
	// scratch, so only the connection could still hold the evicted station.
	score("churn-b", 0)
	deadline = time.Now().Add(2 * time.Second)
	for old.Value() != nil {
		if time.Now().After(deadline) {
			t.Fatal("evicted station still reachable from the connection")
		}
		runtime.GC()
	}
	score("churn-a", 0)
}

// overCapScore appends a MsgScore payload of wire.MaxScorePoints + 1
// observations for station, which AppendScore itself refuses to build:
// a cap-sized frame with its count field raised by one and one more value.
func overCapScore(b []byte, station string) []byte {
	b, err := wire.AppendScore(b, station, make([]float64, wire.MaxScorePoints))
	if err != nil {
		panic(err)
	}
	count := len(b) - 8*wire.MaxScorePoints - 4
	binary.LittleEndian.PutUint32(b[count:], wire.MaxScorePoints+1)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5))
}

// TestWireScorePointCap: a MsgScore frame one point over
// wire.MaxScorePoints is refused with ErrCodeBadRequest before any point
// is submitted — neither a known station's stream nor a new station's
// registration moves — while a frame at the cap is scored.
func TestWireScorePointCap(t *testing.T) {
	s := newTestService(t, Config{Shards: 1})
	ws, err := ListenWire(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Stop()
	c, err := DialWire(ws.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Score("known", []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Score("known", make([]float64, wire.MaxScorePoints+1)); err == nil {
		t.Fatal("client built a frame over the point cap")
	}

	for _, station := range []string{"known", "fresh"} {
		conn, err := net.Dial("tcp", ws.Addr())
		if err != nil {
			t.Fatal(err)
		}
		wc := wire.NewConn(conn)
		if err := wc.WriteFrame(wire.MsgScore, func(b []byte) ([]byte, error) {
			return overCapScore(b, station), nil
		}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		fr, err := wc.ReadFrame()
		if err != nil || fr.Type != wire.MsgError {
			t.Fatalf("%s: frame %+v, err %v", station, fr, err)
		}
		if e, err := wire.ParseError(fr.Payload); err != nil || e.Code != wire.ErrCodeBadRequest {
			t.Fatalf("%s: error %+v, %v; want ErrCodeBadRequest", station, e, err)
		}
		conn.Close()
	}
	if _, ok := s.stations.Load("fresh"); ok {
		t.Fatal("a refused frame registered its station")
	}
	vs, err := c.Score("known", make([]float64, wire.MaxScorePoints))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != wire.MaxScorePoints || vs[0].Index != 1 {
		t.Fatalf("after the refused frame: %d verdicts from index %d, want %d from index 1",
			len(vs), vs[0].Index, wire.MaxScorePoints)
	}
}
