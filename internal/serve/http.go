package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"github.com/evfed/evfed/internal/autoencoder"
)

// HTTP/JSON control plane. Scoring is the binary wire (WireServer);
// this surface carries operator control:
//
//	POST /reload    {"weights":[...],"threshold":0.02}
//	                (or a raw evfeddetect -save-model file as
//	                application/octet-stream)
//	POST /stage     same bodies as /reload, staged as a canary candidate
//	POST /promote   force-promote the staged candidate
//	POST /rollback  {"reason":"..."}: quarantine the staged candidate
//	GET  /rollout   rollout state machine snapshot
//	GET  /stats     counter snapshot
//	GET  /healthz   liveness + serving epoch

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

// Model bodies on /reload and /stage are capped at bodyBytesPerWeight
// per serving weight plus bodySlackBytes. A JSON weight takes at most 25
// bytes ("-1.2345678901234567e-308,") and a gob-coded one at most 9, so
// the cap admits any honest body for the serving architecture with room
// to spare, while no client can make the decoder buffer and parse an
// unbounded body.
const (
	bodyBytesPerWeight = 64
	bodySlackBytes     = 64 << 10
)

// modelBodyLimit is the largest /reload or /stage body accepted.
func (s *Service) modelBodyLimit() int64 {
	return int64(s.state.Load().det.Model().NumParams())*bodyBytesPerWeight + bodySlackBytes
}

// decodeModel reads a /reload or /stage body: JSON weights (Content-Type
// application/json), built on the serving configuration, or a raw
// detector file (evfeddetect -save-model: configuration, weights and
// persisted threshold in one body). A threshold ≤ 0 keeps the serving
// one. On failure decodeModel has already answered the request.
func (s *Service) decodeModel(w http.ResponseWriter, r *http.Request) (*autoencoder.Detector, float64, bool) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return nil, 0, false
	}
	body := http.MaxBytesReader(w, r.Body, s.modelBodyLimit())
	if !strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		det, thr, err := autoencoder.LoadCalibrated(body)
		if err != nil {
			bodyError(w, err)
			return nil, 0, false
		}
		return det, thr, true
	}
	var req reloadRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		bodyError(w, fmt.Errorf("bad model body: %w", err))
		return nil, 0, false
	}
	det, err := autoencoder.FromWeights(s.state.Load().det.Config(), req.Weights)
	if err != nil {
		// A well-formed vector that does not fit the serving architecture
		// is a state conflict, not a malformed request.
		httpError(w, http.StatusConflict, err.Error())
		return nil, 0, false
	}
	return det, req.Threshold, true
}

// bodyError answers a model body that failed to decode: 413 past the
// size cap, 400 otherwise.
func bodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("model body exceeds %d bytes", tooBig.Limit))
		return
	}
	httpError(w, http.StatusBadRequest, err.Error())
}

func (s *Service) handleReload(w http.ResponseWriter, r *http.Request) {
	det, thr, ok := s.decodeModel(w, r)
	if !ok {
		return
	}
	epoch, err := s.Reload(det, thr)
	if err != nil {
		httpError(w, controlStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"epoch": epoch})
}

// handleStage stages the model as a canary candidate instead of
// swapping it live.
func (s *Service) handleStage(w http.ResponseWriter, r *http.Request) {
	det, thr, ok := s.decodeModel(w, r)
	if !ok {
		return
	}
	gen, err := s.Stage(det, thr)
	if err != nil {
		httpError(w, controlStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]uint64{"generation": gen})
}

// controlStatus maps control-plane errors: malformed payloads are the
// caller's fault (400), everything else is a state conflict (409).
func controlStatus(err error) int {
	if errors.Is(err, ErrBadWeights) {
		return http.StatusBadRequest
	}
	return http.StatusConflict
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
		// The reason is optional; an undecodable or oversized body rolls
		// back with the default one.
		_ = json.NewDecoder(http.MaxBytesReader(w, r.Body, bodySlackBytes)).Decode(&req)
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
