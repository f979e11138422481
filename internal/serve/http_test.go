package serve

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
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

// TestHTTPScoreAndControl drives the full JSON surface: single and batch
// scoring, stats, health, and a weights reload that scores subsequent
// points on the new epoch.
func TestHTTPScoreAndControl(t *testing.T) {
	s := newTestService(t, Config{Shards: 2})
	data := httptest.NewServer(s.Handler())
	defer data.Close()
	ctrl := httptest.NewServer(s.ControlHandler())
	defer ctrl.Close()

	// Warm the window with a batch, then score one point.
	feed := testSeries(testSeqLen+4, 3)
	resp, body := postJSON(t, data.URL+"/score", map[string]any{"station": "z102", "values": feed[:testSeqLen]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch score: %d %s", resp.StatusCode, body)
	}
	var batch struct {
		Verdicts []verdictJSON `json:"verdicts"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Verdicts) != testSeqLen || !batch.Verdicts[testSeqLen-1].Ready {
		t.Fatalf("batch verdicts: %+v", batch.Verdicts)
	}

	resp, body = postJSON(t, data.URL+"/score", map[string]any{"station": "z102", "value": feed[testSeqLen]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single score: %d %s", resp.StatusCode, body)
	}
	var single verdictJSON
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatal(err)
	}
	if single.Index != testSeqLen || !single.Ready || single.Epoch != 1 {
		t.Fatalf("single verdict: %+v", single)
	}

	// Reload via JSON weights; next verdict carries epoch 2.
	resp, body = postJSON(t, ctrl.URL+"/reload", map[string]any{"weights": perturbedWeights(t, 8)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}
	var rl struct {
		Epoch int `json:"epoch"`
	}
	if err := json.Unmarshal(body, &rl); err != nil || rl.Epoch != 2 {
		t.Fatalf("reload body %s (err %v)", body, err)
	}
	resp, body = postJSON(t, data.URL+"/score", map[string]any{"station": "z102", "value": feed[testSeqLen+1]})
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.StatusCode)
	}
	if err := json.Unmarshal(body, &single); err != nil || single.Epoch != 2 {
		t.Fatalf("post-reload verdict %s (err %v)", body, err)
	}

	// Bad reloads are 409; malformed bodies are 400.
	if resp, _ = postJSON(t, ctrl.URL+"/reload", map[string]any{"weights": []float64{1}}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("short reload: %d", resp.StatusCode)
	}
	if resp, _ = postJSON(t, data.URL+"/score", map[string]any{"station": "z102"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty score: %d", resp.StatusCode)
	}

	// Stats and health reflect the traffic.
	hr, err := http.Get(ctrl.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsJSON
	if err := json.NewDecoder(hr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if st.Points != testSeqLen+2 || st.Stations != 1 || st.Epoch != 2 {
		t.Fatalf("stats %+v", st)
	}
	hr, err = http.Get(ctrl.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", hr.StatusCode, err)
	}
	hr.Body.Close()
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
