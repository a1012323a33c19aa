package gateway

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"dace/internal/plan"
	"dace/internal/telemetry"
	"dace/internal/wire"
)

// Config parameterizes a gateway. Replicas is the only required field.
type Config struct {
	// Replicas lists the daced instances ("http://host:port" or bare
	// "host:port"). The set is fixed for the gateway's lifetime; health
	// checks flip members in and out of the routing ring.
	Replicas []string

	// MaxInflight bounds concurrent upstream requests per replica; excess
	// traffic gets 503 + Retry-After (default 256).
	MaxInflight int

	// HealthInterval is the readiness probe period (default 250ms). Two
	// consecutive probe failures eject a replica; two successes re-admit it.
	HealthInterval time.Duration

	// Metrics, when non-nil, registers gateway metric families for the
	// /metrics endpoint. Nil leaves the hot path uninstrumented.
	Metrics *telemetry.Registry
}

// Gateway fronts a replicated daced fleet: it decodes each incoming plan
// just far enough to fingerprint it (streaming, no tree), consistent-hashes
// the fingerprint to a healthy replica, and forwards the plan over the
// compact binary wire encoding. See the package comment for why.
type Gateway struct {
	pool    *Pool
	tel     *gatewayMetrics
	rollout rolloutState

	// draining pins /healthz/ready to 503 from BeginDrain onward.
	draining atomic.Bool
}

// New builds a gateway over the configured replica fleet and starts its
// health loop. Callers own the returned gateway and must Close it.
func New(cfg Config) (*Gateway, error) {
	pool, err := newPool(cfg.Replicas, cfg.MaxInflight, cfg.HealthInterval)
	if err != nil {
		return nil, err
	}
	g := &Gateway{pool: pool}
	if cfg.Metrics != nil {
		g.tel = newGatewayMetrics(g, cfg.Metrics)
	}
	return g, nil
}

// Close stops the health loop and every pooled upstream connection.
func (g *Gateway) Close() { g.pool.close() }

// BeginDrain pins /healthz/ready to 503 for the rest of the gateway's life,
// as a replica's BeginDrain does, so the load balancer in front ejects the
// gateway before its listener closes. /predict keeps routing and
// /healthz/live stays 200 meanwhile. Idempotent.
func (g *Gateway) BeginDrain() { g.draining.Store(true) }

// Handler returns the gateway's HTTP mux.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", g.instrument("/predict", g.handlePredict))
	mux.HandleFunc("/predict/batch", g.instrument("/predict/batch", g.handleBatch))
	mux.HandleFunc("/healthz", g.handleHealth)
	mux.HandleFunc("/healthz/live", handleLive)
	mux.HandleFunc("/healthz/ready", g.handleReady)
	mux.HandleFunc("/rollout/start", g.handleRolloutStart)
	mux.HandleFunc("/rollout/status", g.handleRolloutStatus)
	mux.HandleFunc("/rollout/commit", g.handleRolloutCommit)
	mux.HandleFunc("/rollout/abort", g.handleRolloutAbort)
	if g.tel != nil {
		mux.HandleFunc("/metrics", g.handleMetrics)
	}
	return mux
}

// routing errors — both answered with 503 + Retry-After.
var (
	errNoReplicas   = errors.New("gateway: no healthy replicas")
	errBackpressure = errors.New("gateway: replica saturated")
)

// handlePredict routes one plan. The hot path — binary in, cache hit
// upstream — runs allocation-free: pooled scratch, streaming decode into
// flat arenas, fingerprint from the parse, forward over a pooled
// connection, pass the response through.
func (g *Gateway) handlePredict(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowOnly(w, r, http.MethodPost) {
		return
	}
	p, err := wire.ParseParams(r)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	ws := gwPool.Get().(*gwScratch)
	defer gwPool.Put(ws)
	body, err := ws.ReadBody(r.Body, wire.MaxPredictBody)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	f, err := ws.Decode(body, p)
	if err != nil {
		wire.WriteError(w, err)
		return
	}

	// A binary request body is already the wire encoding — validated, it
	// forwards verbatim, zero re-encode cost; every other encoding is
	// re-encoded from the flat plan.
	upBody := body
	if !p.Binary {
		if ws.out, err = f.AppendBinaryFrame(ws.out[:0]); err != nil {
			wire.WriteError(w, err)
			return
		}
		upBody = ws.out
	}

	status, resp, err := g.forward(ws, "/predict", upBody, f.Fingerprint.Hi, tenantOf(p))
	if err != nil {
		writeRouteError(w, err)
		return
	}
	writeProxied(w, status, ws.wire.ct, resp)
}

// forward routes hash h to its replica and performs the round trip,
// retrying on the remapped ring after a transport failure (which ejects the
// failed replica, so the next route lands elsewhere). The returned body
// aliases ws.wire and is valid until ws is reused. A saturated replica is
// not retried — backpressure must reach the client, not pile onto a
// neighbor that owns a different shard.
func (g *Gateway) forward(ws *gwScratch, path string, body []byte, h uint64, tenant tenantID) (int, []byte, error) {
	for tries := 0; tries <= len(g.pool.replicas); tries++ {
		rep := g.pool.route(h)
		if rep == nil {
			return 0, nil, errNoReplicas
		}
		if !rep.acquire() {
			return 0, nil, errBackpressure
		}
		rep.requests.Add(1)
		status, resp, err := rep.up.roundTrip(&ws.wire, http.MethodPost, path, plan.BinaryContentType, tenant, body)
		rep.release()
		if err == nil {
			return status, resp, nil
		}
		rep.errored.Add(1)
		g.pool.eject(rep)
	}
	return 0, nil, errNoReplicas
}

// writeRouteError answers routing failures: always 503 with Retry-After —
// the condition (fleet-wide ejection, a saturated shard) is transient.
func writeRouteError(w http.ResponseWriter, err error) {
	w.Header()["Retry-After"] = retryAfter1
	http.Error(w, err.Error(), http.StatusServiceUnavailable)
}

// GatewayHealth is the /healthz document.
type GatewayHealth struct {
	Status   string          `json:"status"`
	Ready    bool            `json:"ready"`
	Replicas []ReplicaHealth `json:"replicas"`
	Rollout  *RolloutStatus  `json:"rollout,omitempty"`
}

// handleHealth reports gateway and per-replica state (cold path).
func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowOnly(w, r, http.MethodGet) {
		return
	}
	h := GatewayHealth{Status: "ok", Ready: g.pool.healthyCount() > 0, Replicas: g.pool.health()}
	if !h.Ready {
		h.Status = "degraded"
	}
	if st := g.rollout.status(); st.Active {
		h.Rollout = &st
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// handleLive: the gateway process is up. Never 503s.
func handleLive(w http.ResponseWriter, r *http.Request) {
	w.Header()["Content-Type"] = jsonContentType
	w.Write(liveBody)
}

// handleReady: the gateway can do useful work — it is not draining and at
// least one replica is in the ring. Load balancers in front of a gateway
// tier probe this.
func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header()["Content-Type"] = jsonContentType
	body := notReadyBody
	switch {
	case g.draining.Load():
		body = drainingBody
	case g.pool.healthyCount() > 0:
		w.Write(readyBody)
		return
	}
	w.Header()["Retry-After"] = retryAfter1
	w.WriteHeader(http.StatusServiceUnavailable)
	w.Write(body)
}

var (
	liveBody     = []byte(`{"status":"live"}` + "\n")
	readyBody    = []byte(`{"status":"ready"}` + "\n")
	notReadyBody = []byte(`{"status":"not ready"}` + "\n")
	drainingBody = []byte(`{"status":"draining"}` + "\n")
)

// handleMetrics renders the Prometheus exposition (cold path).
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowOnly(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.tel.reg.WritePrometheus(w)
}
