package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/evfed/evfed/internal/autoencoder"
	"github.com/evfed/evfed/internal/fed/wire"
	"github.com/evfed/evfed/internal/serve"
)

// TestServeSmoke is the CI serve-smoke shard: boot the binary's run
// function with a quick synthetic detector, stream 1k points over the
// binary protocol, hot-reload mid-stream over the HTTP control plane,
// and assert verdicts round-trip.
func TestServeSmoke(t *testing.T) {
	stop := make(chan struct{})
	ready := make(chan started, 1)
	done := make(chan error, 1)
	go func() {
		fs := flag.NewFlagSet("evfedserve", flag.ContinueOnError)
		done <- run(fs, []string{
			"-train-synthetic", "-quick", "-seed", "3",
			"-addr", "127.0.0.1:0", "-reload-addr", "127.0.0.1:0",
			"-shards", "2", "-mitigate",
		}, func(st started) <-chan struct{} {
			ready <- st
			return stop
		})
	}()

	var st started
	select {
	case st = <-ready:
	case err := <-done:
		t.Fatalf("service exited early: %v", err)
	case <-time.After(120 * time.Second):
		t.Fatal("service did not start")
	}

	c, err := serve.DialWire(st.ScoreAddr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const points = 1000
	feed := make([]float64, points)
	for i := range feed {
		feed[i] = 0.5
		if i%97 == 0 {
			feed[i] = 3.0 // DDoS-like spike
		}
	}
	var ready1k, flagged int
	for lo := 0; lo < points; lo += 100 {
		vs, err := c.Score("smoke-z102", feed[lo:lo+100])
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			if v.Flags&wire.VerdictReady != 0 {
				ready1k++
			}
			if v.Flags&wire.VerdictFlagged != 0 {
				flagged++
			}
		}
		if lo == 500 {
			// Hot reload mid-stream via the HTTP control plane (the
			// serving weights themselves; the smoke only needs a
			// dimension-compatible vector to push).
			var buf bytes.Buffer
			json.NewEncoder(&buf).Encode(map[string]any{"weights": st.Service.Weights()})
			resp, err := http.Post("http://"+st.ReloadAddr+"/reload", "application/json", &buf)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("reload status %d", resp.StatusCode)
			}
		}
	}
	if ready1k == 0 {
		t.Fatal("no verdict round-tripped")
	}
	if flagged == 0 {
		t.Fatal("no spike flagged")
	}
	if got := st.Service.Stats().Points; got != points {
		t.Fatalf("service scored %d points, want %d", got, points)
	}
	if st.Service.Epoch() != 2 {
		t.Fatalf("epoch %d after one reload", st.Service.Epoch())
	}

	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestCanarySmoke is the CI rollout-smoke shard: boot the binary with
// -canary and -persist, stage a candidate over the binary protocol
// (the coordinator's -serve-canary path), stream traffic until the
// rollout auto-promotes, then shut down gracefully and reload the
// persisted detector.
func TestCanarySmoke(t *testing.T) {
	persistPath := filepath.Join(t.TempDir(), "serving.bin")
	stop := make(chan struct{})
	ready := make(chan started, 1)
	done := make(chan error, 1)
	go func() {
		fs := flag.NewFlagSet("evfedserve", flag.ContinueOnError)
		done <- run(fs, []string{
			"-train-synthetic", "-quick", "-seed", "3",
			"-addr", "127.0.0.1:0", "-reload-addr", "127.0.0.1:0",
			"-shards", "2",
			"-canary", "-canary-fraction", "0.5", "-canary-sample-every", "1",
			"-canary-shadow", "64", "-canary-promote", "64",
			"-idle-ttl", "30m", "-persist", persistPath,
		}, func(st started) <-chan struct{} {
			ready <- st
			return stop
		})
	}()

	var st started
	select {
	case st = <-ready:
	case err := <-done:
		t.Fatalf("service exited early: %v", err)
	case <-time.After(120 * time.Second):
		t.Fatal("service did not start")
	}

	// Stage the serving weights as a candidate — identical model, so the
	// divergence budgets hold and the rollout must auto-promote.
	gen, err := serve.PushCanary(st.ScoreAddr, st.Service.Weights(), 0, wire.VecF32, 10*time.Second)
	if err != nil || gen != 1 {
		t.Fatalf("stage canary: gen %d, err %v", gen, err)
	}
	if st.Service.Epoch() != 1 {
		t.Fatalf("staging swapped the live model: epoch %d", st.Service.Epoch())
	}

	c, err := serve.DialWire(st.ScoreAddr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	feed := make([]float64, 100)
	for i := range feed {
		feed[i] = 0.5
	}
	deadline := time.Now().Add(60 * time.Second)
	promoted := false
	for !promoted && time.Now().Before(deadline) {
		for _, station := range []string{"smoke-a", "smoke-b", "smoke-c", "smoke-d"} {
			if _, err := c.Score(station, feed); err != nil {
				t.Fatal(err)
			}
		}
		ro := st.Service.Rollout()
		promoted = ro.LastOutcome == serve.OutcomePromoted
		if ro.LastOutcome == serve.OutcomeRolledBack {
			t.Fatalf("identical candidate rolled back: %s", ro.LastReason)
		}
	}
	if !promoted {
		t.Fatalf("rollout did not promote: %+v", st.Service.Rollout())
	}
	if st.Service.Epoch() != 2 {
		t.Fatalf("epoch %d after promotion", st.Service.Epoch())
	}

	// The HTTP control plane reports the rollout too.
	resp, err := http.Get("http://" + st.ReloadAddr + "/rollout")
	if err != nil {
		t.Fatal(err)
	}
	var ro serve.RolloutStatus
	if err := json.NewDecoder(resp.Body).Decode(&ro); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !ro.Enabled || ro.LastOutcome != serve.OutcomePromoted || ro.Promotions != 1 {
		t.Fatalf("rollout status %+v", ro)
	}

	wantThr := st.Service.Threshold()
	wantSeqLen := st.Service.SeqLen()
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Graceful shutdown persisted the promoted incumbent.
	f, err := os.Open(persistPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	det, thr, err := autoencoder.LoadCalibrated(f)
	if err != nil {
		t.Fatal(err)
	}
	if thr != wantThr || det.Config().SeqLen != wantSeqLen {
		t.Fatalf("persisted thr %v/%v seqLen %d/%d", thr, wantThr, det.Config().SeqLen, wantSeqLen)
	}
}

// TestModelFileRoundTrip: evfeddetect -save-model format loads with its
// calibrated threshold.
func TestModelFileRoundTrip(t *testing.T) {
	det, thr, err := trainSynthetic(true, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "det.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.SaveCalibrated(f, thr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	got, gotThr, err := autoencoder.LoadCalibrated(rf)
	if err != nil {
		t.Fatal(err)
	}
	if gotThr != thr || got.Config().SeqLen != det.Config().SeqLen {
		t.Fatalf("round trip: thr %v/%v seqLen %d/%d", gotThr, thr, got.Config().SeqLen, det.Config().SeqLen)
	}
}

// TestServeSnapshotResume is the CI resume-smoke shard: boot with
// periodic snapshotting, hot-reload so the serving state diverges from
// the boot model, wait for a periodic snapshot to land, kill the
// process (no graceful persist), then restart with ONLY -persist — the
// restarted server must resume the snapshotted weights, not retrain.
func TestServeSnapshotResume(t *testing.T) {
	persistPath := filepath.Join(t.TempDir(), "serving.bin")
	boot := func(args []string) (started, chan struct{}, chan error) {
		stop := make(chan struct{})
		ready := make(chan started, 1)
		done := make(chan error, 1)
		go func() {
			fs := flag.NewFlagSet("evfedserve", flag.ContinueOnError)
			done <- run(fs, args, func(st started) <-chan struct{} {
				ready <- st
				return stop
			})
		}()
		select {
		case st := <-ready:
			return st, stop, done
		case err := <-done:
			t.Fatalf("service exited early: %v", err)
		case <-time.After(120 * time.Second):
			t.Fatal("service did not start")
		}
		panic("unreachable")
	}

	st, stop, done := boot([]string{
		"-train-synthetic", "-quick", "-seed", "3",
		"-addr", "127.0.0.1:0", "-reload-addr", "127.0.0.1:0",
		"-shards", "2", "-persist", persistPath, "-snapshot-every", "50ms",
	})

	// Diverge the serving state from the boot model via a hot reload.
	w := st.Service.Weights()
	for i := range w {
		w[i] *= 1.0 + 1e-3
	}
	wantThr := st.Service.Threshold() * 1.01
	if _, err := st.Service.ReloadWeights(w, wantThr); err != nil {
		t.Fatal(err)
	}

	// Wait for a periodic snapshot that carries the reloaded state (the
	// threshold is the cheap fingerprint).
	deadline := time.Now().Add(30 * time.Second)
	for {
		if det, thr, err := serve.LoadSnapshotFile(persistPath); err == nil && thr == wantThr && det != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic snapshot with reloaded state never appeared")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// "Crash": tear the first process down. (The graceful path would also
	// snapshot; the periodic file already carries what we assert on.)
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Restart from the snapshot alone — no -model, no -train-synthetic.
	st2, stop2, done2 := boot([]string{
		"-addr", "127.0.0.1:0", "-reload-addr", "127.0.0.1:0",
		"-shards", "2", "-persist", persistPath,
	})
	if got := st2.Service.Threshold(); got != wantThr {
		t.Fatalf("restart did not resume the snapshot: threshold %v, want %v", got, wantThr)
	}
	w2 := st2.Service.Weights()
	for i := range w2 {
		if w2[i] != w[i] {
			t.Fatalf("weight %d differs after restart: %v != %v", i, w2[i], w[i])
		}
	}

	// The restarted server still takes reload pushes (the re-subscribe
	// path a coordinator's -serve-reload hits every round).
	if _, err := st2.Service.ReloadWeights(w2, wantThr); err != nil {
		t.Fatal(err)
	}
	if st2.Service.Epoch() != 2 {
		t.Fatalf("epoch %d after post-restart reload", st2.Service.Epoch())
	}

	close(stop2)
	if err := <-done2; err != nil {
		t.Fatal(err)
	}
}

// TestControlServerDropsHalfHeader: a client that sends half a request
// header and stalls is disconnected once controlReadHeaderTimeout
// passes, instead of holding its connection for ever.
func TestControlServerDropsHalfHeader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := controlServer(http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(controlReadHeaderTimeout + 5*time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection still open after %v: %v", time.Since(start), err)
	}
	if waited := time.Since(start); waited < controlReadHeaderTimeout/2 {
		t.Fatalf("dropped after %v, before the %v header timeout", waited, controlReadHeaderTimeout)
	}
}
