package serve

import (
	"net/http"
	"strconv"

	"dace/internal/wire"
)

// Liveness vs readiness. /healthz/live answers 200 for as long as the
// process can serve HTTP at all — a supervisor uses it to decide whether to
// restart the process. /healthz/ready answers 200 only while the replica
// should receive traffic: a model is loaded and the server is not draining.
// The split exists for the gateway: on SIGTERM, daced calls BeginDrain
// before http.Server.Shutdown, so the gateway's next readiness probe ejects
// the replica while its listener is still accepting — ejection leads the
// drain instead of racing it. A not-ready response carries Retry-After so
// direct clients back off politely too.
//
// Both probe handlers respond from static byte slices with preassigned
// headers: health checkers poll at fixed intervals from every gateway, and
// a probe must never contend with serving for allocator or encoder time.

var (
	liveBody     = []byte("{\"status\":\"live\"}\n")
	readyBody    = []byte("{\"status\":\"ready\"}\n")
	notReadyBody = []byte("{\"status\":\"unready\"}\n")
	drainingBody = []byte("{\"status\":\"draining\"}\n")
	retryAfter1  = []string{"1"}
)

func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowOnly(w, r, http.MethodGet) {
		return
	}
	writeResponseBytes(w, liveBody)
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowOnly(w, r, http.MethodGet) {
		return
	}
	if s.Ready() {
		writeResponseBytes(w, readyBody)
		return
	}
	body := notReadyBody
	if s.draining.Load() {
		body = drainingBody
	}
	h := w.Header()
	h["Retry-After"] = retryAfter1
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = wire.ContentLengthValue(len(body))
	w.WriteHeader(http.StatusServiceUnavailable)
	w.Write(body)
}

// ModelStatus is the GET /model and POST /model/load response.
type ModelStatus struct {
	Version  int  `json:"version"`
	Previous *int `json:"previous,omitempty"` // set by /model/load: the version it replaced
	Ready    bool `json:"ready"`
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowOnly(w, r, http.MethodGet) {
		return
	}
	_, v := s.Served()
	writeJSON(w, ModelStatus{Version: v, Ready: s.Ready()})
}

// handleModelLoad swaps the served model to a versioned artifact through the
// base domain's Load — the replica half of a gateway-coordinated rollout —
// which also yields the version it replaced.
func (s *Server) handleModelLoad(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowOnly(w, r, http.MethodPost) {
		return
	}
	vs := wire.QueryParam(r.URL.RawQuery, "version")
	v, err := strconv.Atoi(vs)
	if err != nil || v < 0 {
		http.Error(w, "version query parameter must be a non-negative integer", http.StatusBadRequest)
		return
	}
	prev, err := s.Base.Load(v)
	if err != nil {
		http.Error(w, "load model version "+vs+": "+err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, ModelStatus{Version: v, Previous: &prev, Ready: s.Ready()})
}
