package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"net/http"

	"dace/internal/adapt"
	"dace/internal/tenant"
	"dace/internal/wire"
)

// MaxFeedbackBody caps one POST /feedback document; overflow returns 413.
var MaxFeedbackBody int64 = 4 << 20

// feedbackRequest is the POST /feedback body. PredictedMS is optional:
// when absent, the server fills it with the current model's prediction so
// drift is measured against what would be served right now.
type feedbackRequest struct {
	Plan        json.RawMessage `json:"plan"`
	ActualMS    float64         `json:"actual_ms"`
	PredictedMS float64         `json:"predicted_ms"`
}

// feedbackResponse acknowledges one accepted sample.
type feedbackResponse struct {
	Accepted    bool    `json:"accepted"`
	PredictedMS float64 `json:"predicted_ms,omitempty"`
	QError      float64 `json:"q_error,omitempty"`
}

// handleFeedback ingests one (plan, actual latency) observation.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowOnly(w, r, http.MethodPost) {
		return
	}
	p, err := wire.ParseParams(r)
	if err != nil {
		writeError(w, err)
		return
	}
	t, st, handled := s.resolve(w, p)
	if handled {
		return
	}
	ws := wirePool.Get().(*wireScratch)
	defer wirePool.Put(ws)
	body, err := ws.ReadBody(r.Body, MaxFeedbackBody)
	if err != nil {
		writeError(w, err)
		return
	}

	var req feedbackRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Plan) == 0 {
		http.Error(w, "feedback requires a plan", http.StatusBadRequest)
		return
	}
	if !(req.ActualMS > 0) || math.IsInf(req.ActualMS, 0) {
		http.Error(w, "actual_ms must be a finite positive number", http.StatusBadRequest)
		return
	}
	if req.PredictedMS < 0 || math.IsNaN(req.PredictedMS) || math.IsInf(req.PredictedMS, 0) {
		http.Error(w, "predicted_ms must be a finite non-negative number", http.StatusBadRequest)
		return
	}
	p.Binary = false // the envelope is JSON whatever the Content-Type says
	f, err := ws.Decode(req.Plan, p)
	if err != nil {
		writeError(w, err)
		return
	}

	// Fill in the serving model's answer when the client didn't record one —
	// through the tenant's own view, so drift is measured against what that
	// tenant is actually served. The pipeline makes this nearly
	// free for plans seen before (the plan shares its fingerprint cache entry
	// with /predict traffic for the same plan).
	if req.PredictedMS == 0 {
		if preds, err := s.predsForFlat(ws, f, st); err == nil && len(preds) > 0 {
			req.PredictedMS = preds[0]
		}
	}
	// The plan aliases ws's decode scratch; Observe copies what it keeps.
	t.Observe(f, req.ActualMS, req.PredictedMS)
	s.tel.feedback.Inc()

	resp := feedbackResponse{Accepted: true, PredictedMS: req.PredictedMS}
	if req.PredictedMS > 0 {
		hi, lo := req.PredictedMS, req.ActualMS
		if hi < lo {
			hi, lo = lo, hi
		}
		resp.QError = hi / lo
	}
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, resp)
}

// serveAdaptStatus answers GET .../adapt/status: t's introspection document.
func serveAdaptStatus(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	if !wire.AllowOnly(w, r, http.MethodGet) {
		return
	}
	st := t.StatusNow()
	writeJSON(w, &st)
}

// serveAdaptTrigger answers POST .../adapt/trigger: one synchronous
// adaptation attempt on t, success returning the gate's outcome document.
func serveAdaptTrigger(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	if !wire.AllowOnly(w, r, http.MethodPost) {
		return
	}
	out, err := t.RunOnce()
	if err != nil {
		writeDomainError(w, err)
		return
	}
	writeJSON(w, out)
}

// writeDomainError maps a tenant's refusal: an attempt already in flight is
// 409, a missing artifact 404, anything else — too few samples, an artifact
// the tenant cannot serve, nothing older to roll back to — is the request's
// fault but well-formed: 422.
func writeDomainError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, adapt.ErrBusy):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, fs.ErrNotExist):
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	}
}
