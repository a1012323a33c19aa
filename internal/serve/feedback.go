package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"

	"dace/internal/plan"
	"dace/internal/wire"
)

// The online-adaptation surface. serve deliberately does not import the
// adapt package: the server talks to the feedback store and the adaptation
// controller through these two interfaces, and the daemon wires the
// concrete types in. A server with nil Feedback/Adapt simply doesn't
// register the corresponding endpoints.

// FeedbackSink receives one observed execution per call. Implementations
// must be safe for concurrent use and must not block on model training —
// Observe sits on the serving path. *adapt.Controller satisfies it.
type FeedbackSink interface {
	Observe(p *plan.Plan, actualMS, predictedMS float64)
}

// Adapter exposes the adaptation controller to HTTP: Status powers
// GET /adapt/status, Trigger powers POST /adapt/trigger. An error whose
// Busy() method reports true maps to 409 Conflict. *adapt.Controller
// satisfies it.
type Adapter interface {
	Status() any
	Trigger() (any, error)
}

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
	tc, tenantID, handled := s.resolveTenant(w, p)
	if handled {
		return
	}
	if tenantID == "" && s.Feedback == nil {
		// Registered because Tenants is set; without a resolved tenant there
		// is no global sink to deliver to.
		http.Error(w, "feedback requires a registered tenant (X-DACE-Tenant or database param)", http.StatusUnprocessableEntity)
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
	t, f, err := ws.DecodeTree(req.Plan, p)
	if err != nil {
		writeError(w, err)
		return
	}

	// Fill in the serving model's answer when the client didn't record one —
	// through the tenant's own adapter view, so drift is measured against
	// what that tenant is actually served. The pipeline makes this nearly
	// free for plans seen before (the flattened tree shares its fingerprint
	// cache entry with /predict traffic for the same plan).
	if req.PredictedMS == 0 {
		if preds, err := s.predsForFlat(f, tc); err == nil && len(preds) > 0 {
			req.PredictedMS = preds[0]
		}
	}
	// A resolved tenant owns its feedback stream; everything else goes to
	// the global sink (when configured).
	if tenantID != "" {
		s.Tenants.Observe(tenantID, t, req.ActualMS, req.PredictedMS)
	} else {
		s.Feedback.Observe(t, req.ActualMS, req.PredictedMS)
	}
	if s.tel != nil {
		s.tel.feedback.Inc()
	}

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

// handleAdaptStatus serves the controller's introspection document.
func (s *Server) handleAdaptStatus(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowOnly(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, s.Adapt.Status())
}

// handleAdaptTrigger runs one synchronous adaptation attempt. A busy
// controller (one already in flight) is 409; any other refusal is 409 with
// the reason in the body; success returns the gate's outcome document.
func (s *Server) handleAdaptTrigger(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowOnly(w, r, http.MethodPost) {
		return
	}
	out, err := s.Adapt.Trigger()
	if err != nil {
		var busy interface{ Busy() bool }
		if errors.As(err, &busy) && busy.Busy() {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		// Refused for a non-concurrency reason (e.g. too few samples).
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, out)
}
