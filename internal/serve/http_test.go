package serve

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/evfed/evfed/internal/autoencoder"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// submitBatch scores values for one station through Station.SubmitN and
// returns the verdicts in submission order.
func submitBatch(t *testing.T, s *Service, station string, values []float64) []Verdict {
	t.Helper()
	h, err := s.Station(station)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan Verdict, len(values))
	if n, err := h.SubmitN(values, func(v Verdict) { ch <- v }); err != nil || n != len(values) {
		t.Fatalf("submit %d values: accepted %d, err %v", len(values), n, err)
	}
	out := make([]Verdict, len(values))
	for i := range out {
		out[i] = <-ch
	}
	return out
}

// TestHTTPScoreAndControl drives the JSON control plane around in-process
// scoring: a weights reload that scores subsequent points on the new
// epoch, rejection of a misfit vector, stats and health.
func TestHTTPScoreAndControl(t *testing.T) {
	s := newTestService(t, Config{Shards: 2})
	ctrl := httptest.NewServer(s.ControlHandler())
	defer ctrl.Close()

	// Warm the window with a batch, then score one point.
	feed := testSeries(testSeqLen+4, 3)
	batch := submitBatch(t, s, "z102", feed[:testSeqLen])
	if !batch[testSeqLen-1].Ready {
		t.Fatalf("batch verdicts: %+v", batch)
	}
	single := submitBatch(t, s, "z102", feed[testSeqLen:testSeqLen+1])[0]
	if single.Index != testSeqLen || !single.Ready || single.Epoch != 1 {
		t.Fatalf("single verdict: %+v", single)
	}

	// Reload via JSON weights; next verdict carries epoch 2.
	resp, body := postJSON(t, ctrl.URL+"/reload", map[string]any{"weights": perturbedWeights(t, 8)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}
	var rl struct {
		Epoch int `json:"epoch"`
	}
	if err := json.Unmarshal(body, &rl); err != nil || rl.Epoch != 2 {
		t.Fatalf("reload body %s (err %v)", body, err)
	}
	if v := submitBatch(t, s, "z102", feed[testSeqLen+1:testSeqLen+2])[0]; v.Epoch != 2 {
		t.Fatalf("post-reload verdict %+v", v)
	}

	// A vector that does not fit the serving architecture is a 409.
	if resp, _ = postJSON(t, ctrl.URL+"/reload", map[string]any{"weights": []float64{1}}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("short reload: %d", resp.StatusCode)
	}

	// Stats and health reflect the traffic.
	hr, err := http.Get(ctrl.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if raw["points"] != float64(testSeqLen+2) || raw["stations"] != 1.0 || raw["epoch"] != 2.0 {
		t.Fatalf("stats %v", raw)
	}
	if _, ok := raw["singleWindows"]; ok {
		t.Fatalf("stats still carry singleWindows: %v", raw)
	}
	hr, err = http.Get(ctrl.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", hr.StatusCode, err)
	}
	hr.Body.Close()
}

// TestHTTPModelBodyLimit: /reload and /stage read at most
// modelBodyLimit bytes. A JSON body of exactly the limit and a real
// detector file pass; one byte more is 413 and leaves the model alone.
func TestHTTPModelBodyLimit(t *testing.T) {
	det, thr := testDetector(t)
	s := newTestService(t, Config{Shards: 1, Rollout: testRollout()})
	ctrl := httptest.NewServer(s.ControlHandler())
	defer ctrl.Close()

	// padded is a valid JSON weights body of exactly n bytes: the padding
	// sits inside the value, so the decoder must read all of it.
	weights, err := json.Marshal(perturbedWeights(t, 51))
	if err != nil {
		t.Fatal(err)
	}
	padded := func(n int64) []byte {
		head, tail := `{"weights":`, string(weights)+"}"
		return []byte(head + strings.Repeat(" ", int(n)-len(head)-len(tail)) + tail)
	}
	post := func(path, contentType string, body []byte) int {
		t.Helper()
		resp, err := http.Post(ctrl.URL+path, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	limit := s.modelBodyLimit()
	if code := post("/reload", "application/json", padded(limit)); code != http.StatusOK {
		t.Fatalf("%d-byte JSON body at the limit: %d", limit, code)
	}
	for _, path := range []string{"/reload", "/stage"} {
		if code := post(path, "application/json", padded(limit+1)); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a %d-byte JSON body: %d, want 413", path, limit+1, code)
		}
	}
	if s.Epoch() != 2 || s.Rollout().Gen != 0 {
		t.Fatalf("oversized bodies moved the model: epoch %d, gen %d", s.Epoch(), s.Rollout().Gen)
	}
	var file bytes.Buffer
	if err := det.SaveCalibrated(&file, thr); err != nil {
		t.Fatal(err)
	}
	if code := post("/reload", "application/octet-stream", file.Bytes()); code != http.StatusOK {
		t.Fatalf("%d-byte detector file: %d", file.Len(), code)
	}
}

// TestHTTPDetectorFileReload posts a persisted detector file
// (evfeddetect -save-model format) as octet-stream.
func TestHTTPDetectorFileReload(t *testing.T) {
	det, thr := testDetector(t)
	s := newTestService(t, Config{Shards: 1})
	ctrl := httptest.NewServer(s.ControlHandler())
	defer ctrl.Close()

	var buf bytes.Buffer
	if err := det.SaveCalibrated(&buf, thr*3); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ctrl.URL+"/reload", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("file reload: %d", resp.StatusCode)
	}
	if s.Epoch() != 2 {
		t.Fatalf("epoch %d", s.Epoch())
	}
	if got := s.Threshold(); fmt.Sprintf("%.12g", got) != fmt.Sprintf("%.12g", thr*3) {
		t.Fatalf("threshold %v, want %v", got, thr*3)
	}
}

// TestHTTPDetectorFileWeightCount: a detector file whose configuration
// names a model far larger than the weights it carries (here a
// 20,000-unit encoder, 12.8 GB of recurrent kernel, with three weights)
// is the caller's fault on both raw-body control endpoints — 400, with
// the serving model and epoch untouched.
func TestHTTPDetectorFileWeightCount(t *testing.T) {
	s := newTestService(t, Config{Shards: 1, Rollout: testRollout()})
	ctrl := httptest.NewServer(s.ControlHandler())
	defer ctrl.Close()

	cfg := s.state.Load().det.Config()
	cfg.EncoderUnits = 20000
	var file bytes.Buffer
	// gob matches fields by name: this is the detector file layout.
	if err := gob.NewEncoder(&file).Encode(struct {
		Config    autoencoder.Config
		Weights   []float64
		Threshold float64
	}{cfg, []float64{1, 2, 3}, 1}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/reload", "/stage"} {
		resp, err := http.Post(ctrl.URL+path, "application/octet-stream", bytes.NewReader(file.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with a %d-byte oversized-model file: %d, want 400", path, file.Len(), resp.StatusCode)
		}
	}
	if s.Epoch() != 1 {
		t.Fatalf("epoch %d after rejected reloads", s.Epoch())
	}
}

// TestHTTPRollout drives the canary control plane over HTTP: stage a
// candidate, inspect /rollout, promote it, and exercise the rejection
// paths (NaN weights → 400, no candidate → 409).
func TestHTTPRollout(t *testing.T) {
	s := newTestService(t, Config{Shards: 1, Rollout: testRollout()})
	ctrl := httptest.NewServer(s.ControlHandler())
	defer ctrl.Close()

	// Stage via JSON weights; the serving epoch must not move.
	resp, body := postJSON(t, ctrl.URL+"/stage", map[string]any{"weights": perturbedWeights(t, 41)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stage: %d %s", resp.StatusCode, body)
	}
	var staged struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &staged); err != nil || staged.Generation != 1 {
		t.Fatalf("stage body %s (err %v)", body, err)
	}
	if s.Epoch() != 1 {
		t.Fatalf("staging swapped the live model: epoch %d", s.Epoch())
	}

	hr, err := http.Get(ctrl.URL + "/rollout")
	if err != nil {
		t.Fatal(err)
	}
	var st RolloutStatus
	if err := json.NewDecoder(hr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if !st.Enabled || st.Phase != "shadow" || st.Gen != 1 || st.ServingEpoch != 1 {
		t.Fatalf("rollout status %+v", st)
	}

	// NaN weights (via a detector file — JSON cannot carry NaN) are the
	// caller's fault: 400. Dimension mismatches are state conflicts: 409.
	bad := perturbedWeights(t, 42)
	bad[0] = math.NaN()
	badDet, err := autoencoder.FromWeights(s.state.Load().det.Config(), bad)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := badDet.SaveCalibrated(&file, s.Threshold()); err != nil {
		t.Fatal(err)
	}
	nresp, err := http.Post(ctrl.URL+"/stage", "application/octet-stream", &file)
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("NaN stage: %d", nresp.StatusCode)
	}
	if resp, body = postJSON(t, ctrl.URL+"/stage", map[string]any{"weights": bad[1:5]}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("short stage: %d %s", resp.StatusCode, body)
	}

	resp, body = postJSON(t, ctrl.URL+"/promote", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %d %s", resp.StatusCode, body)
	}
	var pr struct {
		Epoch int `json:"epoch"`
	}
	if err := json.Unmarshal(body, &pr); err != nil || pr.Epoch != 2 || s.Epoch() != 2 {
		t.Fatalf("promote body %s (err %v), epoch %d", body, err, s.Epoch())
	}

	// Nothing staged now: promote and rollback are state conflicts.
	if resp, _ = postJSON(t, ctrl.URL+"/promote", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("promote without candidate: %d", resp.StatusCode)
	}

	// Restage and roll back with a reason; the epoch stays promoted.
	if resp, body = postJSON(t, ctrl.URL+"/stage", map[string]any{"weights": perturbedWeights(t, 43)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("restage: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ctrl.URL+"/rollback", map[string]any{"reason": "operator drill"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &pr); err != nil || pr.Epoch != 2 {
		t.Fatalf("rollback body %s (err %v)", body, err)
	}
	hr, err = http.Get(ctrl.URL + "/rollout")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if st.Phase != "none" || st.LastOutcome != OutcomeRolledBack || st.LastReason != "operator drill" ||
		st.Promotions != 1 || st.Rollbacks != 1 {
		t.Fatalf("final rollout status %+v", st)
	}
}
