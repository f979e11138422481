package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"github.com/evfed/evfed/internal/autoencoder"
)

// HTTP/JSON surface. Two handlers, so a deployment can bind the data
// plane and the control plane to different listeners:
//
//	Handler         POST /score    {"station":"z102","value":3.1}
//	                               {"station":"z102","values":[...]}
//	ControlHandler  POST /reload   {"weights":[...],"threshold":0.02}
//	                               (or a raw evfeddetect -save-model file
//	                               as application/octet-stream)
//	                GET  /stats    counter snapshot
//	                GET  /healthz  liveness + serving epoch
//
// A full shard queue maps to 503 with Retry-After — the backpressure
// contract over HTTP.

// scoreRequest is the /score body: one station, one value or a batch of
// consecutive values.
type scoreRequest struct {
	Station string    `json:"station"`
	Value   *float64  `json:"value,omitempty"`
	Values  []float64 `json:"values,omitempty"`
}

// verdictJSON is one verdict on the HTTP surface.
type verdictJSON struct {
	Station   string  `json:"station"`
	Index     int     `json:"index"`
	Score     float64 `json:"score"`
	Flagged   bool    `json:"flagged"`
	Ready     bool    `json:"ready"`
	Value     float64 `json:"value"`
	Mitigated float64 `json:"mitigated"`
	Epoch     int     `json:"epoch"`
	Canary    bool    `json:"canary,omitempty"`
}

func toJSON(v Verdict) verdictJSON {
	return verdictJSON{
		Station:   v.Station,
		Index:     v.Index,
		Score:     v.Score,
		Flagged:   v.Flagged,
		Ready:     v.Ready,
		Value:     v.Value,
		Mitigated: v.Mitigated,
		Epoch:     v.Epoch,
		Canary:    v.Canary,
	}
}

// reloadRequest is the JSON /reload body. Threshold ≤ 0 (or absent)
// keeps the serving threshold.
type reloadRequest struct {
	Weights   []float64 `json:"weights"`
	Threshold float64   `json:"threshold,omitempty"`
}

// statsJSON mirrors Stats with wire-stable lowercase keys.
type statsJSON struct {
	Points         uint64 `json:"points"`
	Warmup         uint64 `json:"warmup"`
	Flagged        uint64 `json:"flagged"`
	BatchCalls     uint64 `json:"batchCalls"`
	BatchedWindows uint64 `json:"batchedWindows"`
	SingleWindows  uint64 `json:"singleWindows"` // always 0 (Stats.SingleWindows)
	Rejected       uint64 `json:"rejected"`
	Stations       uint64 `json:"stations"`
	Evicted        uint64 `json:"evicted"`
	ShadowWindows  uint64 `json:"shadowWindows"`
	CanaryServed   uint64 `json:"canaryServed"`
	StealOffered   uint64 `json:"stealOffered"` // wave chunks forked (split.go)
	// Submit→verdict latency percentiles in microseconds, from the
	// per-shard fixed-bin histograms.
	LatencyP50Micros  float64 `json:"latencyP50Micros"`
	LatencyP90Micros  float64 `json:"latencyP90Micros"`
	LatencyP99Micros  float64 `json:"latencyP99Micros"`
	LatencyP999Micros float64 `json:"latencyP999Micros"`
	Epoch             int     `json:"epoch"`
	Shards            int     `json:"shards"`
}

// Handler returns the scoring data plane: POST /score.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/score", s.handleScore)
	return mux
}

// ControlHandler returns the control plane: POST /reload, POST /stage,
// POST /promote, POST /rollback, GET /rollout, GET /stats, GET /healthz.
func (s *Service) ControlHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/reload", s.handleReload)
	mux.HandleFunc("/stage", s.handleStage)
	mux.HandleFunc("/promote", s.handlePromote)
	mux.HandleFunc("/rollback", s.handleRollback)
	mux.HandleFunc("/rollout", s.handleRollout)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func (s *Service) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req scoreRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad score request: "+err.Error())
		return
	}
	values := req.Values
	if req.Value != nil {
		if len(values) > 0 {
			httpError(w, http.StatusBadRequest, `use "value" or "values", not both`)
			return
		}
		values = []float64{*req.Value}
	}
	if len(values) == 0 {
		httpError(w, http.StatusBadRequest, "no observations")
		return
	}
	h, err := s.Station(req.Station)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrClosed) || errors.Is(err, ErrStationLimit) {
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, err.Error())
		return
	}
	ch := make(chan Verdict, len(values))
	reply := func(v Verdict) { ch <- v }
	for i, v := range values {
		if err := h.Submit(v, reply); err != nil {
			// Collect what was accepted so their indices are not lost,
			// then report the failure; the producer resubmits the rest.
			verdicts := gather(ch, i)
			if errors.Is(err, ErrBacklog) {
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusServiceUnavailable, map[string]any{
					"error": err.Error(), "verdicts": verdicts, "rejected": len(values) - i,
				})
				return
			}
			status := http.StatusBadRequest
			if errors.Is(err, ErrClosed) {
				status = http.StatusServiceUnavailable
			}
			writeJSON(w, status, map[string]any{
				"error": err.Error(), "verdicts": verdicts, "rejected": len(values) - i,
			})
			return
		}
	}
	verdicts := gather(ch, len(values))
	if len(values) == 1 {
		writeJSON(w, http.StatusOK, verdicts[0])
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"verdicts": verdicts})
}

// gather collects n verdicts in submission order (the shard preserves
// per-station order, and /score batches are single-station).
func gather(ch <-chan Verdict, n int) []verdictJSON {
	out := make([]verdictJSON, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, toJSON(<-ch))
	}
	return out
}

func (s *Service) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var epoch int
	var err error
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req reloadRequest
		if derr := json.NewDecoder(r.Body).Decode(&req); derr != nil {
			httpError(w, http.StatusBadRequest, "bad reload request: "+derr.Error())
			return
		}
		epoch, err = s.ReloadWeights(req.Weights, req.Threshold)
	} else {
		// Raw detector file (evfeddetect -save-model): full configuration
		// + weights + persisted threshold in one body.
		det, thr, lerr := autoencoder.LoadCalibrated(r.Body)
		if lerr != nil {
			httpError(w, http.StatusBadRequest, lerr.Error())
			return
		}
		epoch, err = s.Reload(det, thr)
	}
	if err != nil {
		httpError(w, controlStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"epoch": epoch})
}

// controlStatus maps control-plane errors: malformed payloads are the
// caller's fault (400), everything else is a state conflict (409).
func controlStatus(err error) int {
	if errors.Is(err, ErrBadWeights) {
		return http.StatusBadRequest
	}
	return http.StatusConflict
}

// handleStage accepts the same bodies as /reload (JSON weights+threshold
// or a raw evfeddetect -save-model file) but stages the model as a canary
// candidate instead of swapping it live.
func (s *Service) handleStage(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var gen uint64
	var err error
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req reloadRequest
		if derr := json.NewDecoder(r.Body).Decode(&req); derr != nil {
			httpError(w, http.StatusBadRequest, "bad stage request: "+derr.Error())
			return
		}
		gen, err = s.StageWeights(req.Weights, req.Threshold)
	} else {
		det, thr, lerr := autoencoder.LoadCalibrated(r.Body)
		if lerr != nil {
			httpError(w, http.StatusBadRequest, lerr.Error())
			return
		}
		gen, err = s.Stage(det, thr)
	}
	if err != nil {
		httpError(w, controlStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]uint64{"generation": gen})
}

func (s *Service) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	epoch, err := s.Promote()
	if err != nil {
		httpError(w, controlStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"epoch": epoch})
}

func (s *Service) handleRollback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req struct {
		Reason string `json:"reason"`
	}
	if r.Body != nil {
		_ = json.NewDecoder(r.Body).Decode(&req) // reason is optional
	}
	if err := s.Rollback(req.Reason); err != nil {
		httpError(w, controlStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"epoch": s.Epoch()})
}

func (s *Service) handleRollout(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Rollout())
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	writeJSON(w, http.StatusOK, statsJSON{
		Points:         st.Points,
		Warmup:         st.Warmup,
		Flagged:        st.Flagged,
		BatchCalls:     st.BatchCalls,
		BatchedWindows: st.BatchedWindows,
		SingleWindows:  st.SingleWindows,
		Rejected:       st.Rejected,
		Stations:       st.Stations,
		Evicted:        st.Evicted,
		ShadowWindows:  st.ShadowWindows,
		CanaryServed:   st.CanaryServed,
		StealOffered:   st.StealOffered,

		LatencyP50Micros:  st.LatencyP50Micros,
		LatencyP90Micros:  st.LatencyP90Micros,
		LatencyP99Micros:  st.LatencyP99Micros,
		LatencyP999Micros: st.LatencyP999Micros,

		Epoch:  st.Epoch,
		Shards: st.Shards,
	})
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "epoch": s.Epoch()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// String summarizes the service for startup logs.
func (s *Service) String() string {
	return fmt.Sprintf("serve: %d shards, queue %d, split at ≥%d windows, seqLen %d, epoch %d",
		len(s.shards), s.cfg.QueueDepth, 2*minChunk, s.SeqLen(), s.Epoch())
}
