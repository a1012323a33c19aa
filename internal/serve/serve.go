// Package serve exposes a trained DACE model over HTTP — the deployment
// surface the paper's query-performance-prediction use case needs: a DBMS
// or workload manager POSTs a plan and gets back predicted latencies for
// the plan and every sub-plan, in well under a millisecond of model time.
//
// Endpoints:
//
//	POST /predict                body: plan JSON (plan.WriteJSON format)
//	POST /predict?format=pg      body: PostgreSQL EXPLAIN (FORMAT JSON) output
//	POST /predict/batch          body: JSON array of plans (either format)
//	GET  /healthz                model metadata + cache/queue stats
//	GET  /healthz/live           liveness: 200 while the process can answer
//	GET  /healthz/ready          readiness: 503+Retry-After while draining
//	                             or before the first model load
//	POST /model/load?version=N   swap to a versioned artifact
//	GET  /model                  currently served model version
//	POST /feedback               one observed execution
//	GET  /adapt/status           adaptation controller state
//	POST /adapt/trigger          one synchronous adaptation attempt
//	     /tenants, /tenants/...  the per-tenant tree (tenants.go), on a
//	                             server whose registry has tenants enabled
//	GET  /metrics                Prometheus text exposition
//
// How the bytes of a /predict, /predict/batch or /feedback request become a
// validated plan — format and Content-Type negotiation, the body cap, the
// three decoders, the finite/type check, and the 400/413 that answer a
// failure — is not decided here: it is internal/wire, shared with the
// gateway so a request is rejected identically direct and routed.
//
// The serving pipeline — one pipeline, the one daced runs; Config.CacheSize 0
// takes the two caches out and nothing else is optional — answers from the
// cheapest stage that can, and bounds what reaches the model:
//
//	request body ── body cache ── plan fingerprint cache ── admission ── model
//	                (exact wire     (canonical 128-bit        (Workers slots;
//	                 bytes hit:      hash: hit skips the       FIFO wait when
//	                 skips JSON      forward pass; misses      busy, 503 when
//	                 entirely)       coalesce in flight)       the wait is full)
//
// Between decode and model there is one representation, plan.FlatPlan: the
// streaming decoders produce it (for /feedback's embedded plan as for
// /predict), a pg EXPLAIN tree is flattened once at the edge
// (wire.Scratch.Decode), and the model featurizes its arrays in place.
//
// Cost-estimation traffic is highly repetitive — an optimizer re-costs the
// same sub-plans across candidate joins — so most requests resolve in the
// first two stages. What remains runs its forward pass on the handler's own
// goroutine: the admission stage (batcher.go) only caps how many run at once,
// so an idle server adds nothing to decode + forward + encode, and an
// overloaded one queues a bounded number of requests and sheds the rest.
// Cached predictions are bitwise-identical to uncached ones: equal
// fingerprints imply equal model inputs.
//
// Every request resolves to exactly one tenant of the server's registry
// (internal/tenant): the one it names when that one is registered, else
// tenant zero — the model the server was handed. What it answers from — the
// model, the artifact version it was loaded as, and the salt of the cache
// domain its predictions live in — is that tenant's immutable snapshot
// behind one pointer. A request loads it once and folds its salt into every
// cache key it forms; a publish installs a new snapshot with a new salt and
// touches neither cache, so a prediction made by one model is never served
// for another and the replaced model's entries leave by LRU. /feedback,
// /adapt/* and /model/load drive the resolved or zero tenant with the code
// the /tenants/{id}/... arms run.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dace/internal/core"
	"dace/internal/nn"
	"dace/internal/plan"
	"dace/internal/servecache"
	"dace/internal/telemetry"
	"dace/internal/tenant"
	"dace/internal/version"
	"dace/internal/wire"
)

// maxCachedBody bounds entries admitted to the body cache so a burst of
// huge one-off documents cannot monopolize its memory; larger bodies still
// use the fingerprint cache.
const maxCachedBody = 256 << 10

// defaultQueueDepth is the wait bound of a zero Config.QueueDepth: what
// daced and benchmark/ run with.
const defaultQueueDepth = 4096

// Config tunes the serving pipeline. Every server runs the admission stage
// and telemetry; the zero value is daced's pipeline without the caches —
// the uncached reference that cached servers must match bit for bit.
type Config struct {
	// CacheSize is the per-cache entry capacity of the prediction caches
	// (fingerprint → sub-plan predictions, and body bytes → response
	// bytes); <= 0 disables both.
	CacheSize int
	// MaxBatch and MaxWait are accepted and ignored: the admission stage
	// is always on and nothing lingers. They remain fields only because
	// benchmark/ sets them; the benchmark PR that stops setting them
	// deletes both.
	MaxBatch int
	MaxWait  time.Duration
	// QueueDepth bounds how many requests may wait for a forward slot (0 =
	// 4096). One more fails fast: 503 with Retry-After.
	QueueDepth int
	// Metrics is the registry the pipeline is instrumented into
	// (per-endpoint request counts and latency histograms, cache and
	// admission-stage collectors) and that GET /metrics renders. Nil gives
	// the server a registry of its own.
	Metrics *telemetry.Registry
}

// Server wraps a registry of tenants with HTTP handlers. What a tenant
// serves can be swapped at runtime for zero-downtime updates after
// fine-tuning; requests that loaded the old snapshot finish against it,
// later ones never see its cache entries.
type Server struct {
	reg *tenant.Registry // the tenants requests resolve to; tenant zero always

	// Workers sizes the inference pool: the /predict/batch fan-out and the
	// admission stage's forward slots. <= 0 means one worker per CPU. Set
	// before serving starts.
	Workers int

	// draining pins /healthz/ready false from BeginDrain/Close onward. A
	// gateway health-checks readiness, so flipping it is what removes a
	// replica from rotation *before* SIGTERM starts tearing connections down.
	draining atomic.Bool

	// In-flight prediction requests (both /predict endpoints), with a
	// high-watermark: the concurrency the replica has actually absorbed,
	// for capacity planning against the load generator's offered rates.
	inflight    atomic.Int64
	inflightHWM atomic.Int64

	preds  *servecache.Cache[[]float64] // plan fingerprint → DFS predictions
	bodies *servecache.Cache[[]byte]    // request bytes → response bytes
	bat    *batcher
	tel    *serverMetrics
}

// New builds a server without the prediction caches: every request runs
// its own forward pass, behind the admission stage.
func New(m *core.Model) *Server { return NewWithConfig(m, Config{}) }

// NewWithConfig builds a server whose tenant zero serves m under the
// registry's defaults, with no tenants part.
func NewWithConfig(m *core.Model, cfg Config) *Server {
	return NewWithRegistry(tenant.New(m, nil, nil, tenant.Config{}), cfg)
}

// NewWithRegistry builds a server answering through reg's tenants with the
// given pipeline configuration; it routes /tenants when reg's tenants part
// is built (tenant.Registry.EnableTenants) before Handler is called. Call
// Close to drain the admission stage on shutdown.
func NewWithRegistry(reg *tenant.Registry, cfg Config) *Server {
	s := &Server{reg: reg}
	if cfg.CacheSize > 0 {
		s.preds = servecache.New[[]float64](cfg.CacheSize, 0)
		s.bodies = servecache.New[[]byte](cfg.CacheSize, 0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = defaultQueueDepth
	}
	s.bat = newBatcher(s, depth)
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = telemetry.NewRegistry()
	}
	s.tel = newServerMetrics(s, metrics)
	return s
}

// Close drains the admission stage: requests holding or waiting for a slot
// complete, later ones are rejected with 503. Idempotent.
func (s *Server) Close() {
	s.BeginDrain()
	s.bat.close()
}

// BeginDrain pins readiness false for the rest of the server's life:
// /healthz/ready answers 503 from here on, so a gateway's next probe ejects
// this replica *before* the listener stops accepting. Call it on SIGTERM,
// ahead of http.Server.Shutdown — the probe-interval head start is what
// keeps gateway ejection from racing the drain. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Ready reports whether the server would answer /healthz/ready with 200:
// a model is loaded and draining has not begun.
func (s *Server) Ready() bool { return !s.draining.Load() && s.Model() != nil }

// Publish, Admit and Served make the server an adapt.Host: tenant zero's.
func (s *Server) Publish(m *core.Model, version int) { s.reg.Zero().Publish(m, version) }
func (s *Server) Admit(m *core.Model) error          { return s.reg.Zero().Admit(m) }
func (s *Server) Served() (*core.Model, int)         { return s.reg.Zero().Served() }

// Model returns the model tenant zero serves.
func (s *Server) Model() *core.Model { return s.reg.Zero().State().View }

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	zero := s.reg.Zero()
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", s.instrument("/predict", s.handlePredict))
	mux.HandleFunc("/predict/batch", s.instrument("/predict/batch", s.handlePredictBatch))
	mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealth))
	mux.HandleFunc("/healthz/live", s.handleLive)
	mux.HandleFunc("/healthz/ready", s.handleReady)
	mux.HandleFunc("/model/load", s.instrument("/model/load", s.handleModelLoad))
	mux.HandleFunc("/model", s.instrument("/model", s.handleModel))
	mux.HandleFunc("/adapt/status", s.instrument("/adapt/status", func(w http.ResponseWriter, r *http.Request) {
		serveAdaptStatus(w, r, zero)
	}))
	mux.HandleFunc("/adapt/trigger", s.instrument("/adapt/trigger", func(w http.ResponseWriter, r *http.Request) {
		serveAdaptTrigger(w, r, zero)
	}))
	mux.HandleFunc("/feedback", s.instrument("/feedback", s.handleFeedback))
	if s.reg.Base() != nil {
		h := s.instrument("/tenants", s.handleTenants)
		mux.HandleFunc("/tenants", h)
		mux.HandleFunc("/tenants/", h)
	}
	mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	return mux
}

// Prediction is the /predict response.
type Prediction struct {
	RootMS   float64   `json:"root_ms"`
	SubPlans []SubPlan `json:"sub_plans"`
}

// SubPlan is one node's prediction, in DFS order.
type SubPlan struct {
	Index       int     `json:"index"`
	Operator    string  `json:"operator"`
	Height      int     `json:"height"`
	EstRows     float64 `json:"est_rows"`
	EstCost     float64 `json:"est_cost"`
	PredictedMS float64 `json:"predicted_ms"`
}

// Sentinel errors the pipeline maps to HTTP statuses in writeError.
var (
	errQueueFull = errors.New("serve: request queue full")
	errClosed    = errors.New("serve: server shutting down")
	// errPanicked wraps what a forward pass panicked with: the request it
	// was running for fails with 500, the server keeps serving.
	errPanicked = errors.New("serve: inference panicked")
)

// trackInflight bumps the in-flight gauge (and its high-watermark) and
// returns the matching decrement for the caller to defer.
func (s *Server) trackInflight() func() {
	if cur := s.inflight.Add(1); cur > s.inflightHWM.Load() {
		for {
			old := s.inflightHWM.Load()
			if cur <= old || s.inflightHWM.CompareAndSwap(old, cur) {
				break
			}
		}
	}
	return func() { s.inflight.Add(-1) }
}

// Inflight reports the prediction requests being served right now and the
// highest that gauge has ever reached.
func (s *Server) Inflight() (now, hwm int64) {
	return s.inflight.Load(), s.inflightHWM.Load()
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowOnly(w, r, http.MethodPost) {
		return
	}
	defer s.trackInflight()()
	p, err := wire.ParseParams(r)
	if err != nil {
		writeError(w, err)
		return
	}
	_, st, handled := s.resolve(w, p)
	if handled {
		return
	}

	ws := wirePool.Get().(*wireScratch)
	defer wirePool.Put(ws)
	body, err := ws.ReadBody(r.Body, wire.MaxPredictBody)
	if err != nil {
		writeError(w, err)
		return
	}

	if s.bodies != nil && len(body) <= maxCachedBody {
		// Exact wire-bytes hit: skip plan decode, fingerprinting, and encode
		// entirely — the whole request is hash, lookup, write. The domain
		// salt separates the key: a hot-swap (generation bump) orphans that
		// domain's entries without touching anyone else's.
		var key servecache.Key
		if p.Binary {
			key = st.Key(servecache.KeyOf(body, binaryBodyTag, []byte(p.Database)))
		} else {
			key = st.Key(servecache.KeyOf(body, []byte(p.Format), []byte(p.Database)))
		}
		if resp, ok := s.bodies.Lookup(key); ok {
			writeResponseBytes(w, resp)
			return
		}
		// Miss: render into a fresh cacheable buffer; identical in-flight
		// bodies coalesce here too.
		resp, err := s.bodies.GetOrCompute(key, func() ([]byte, error) {
			return s.renderPredict(ws, nil, body, p, st)
		})
		if err != nil {
			writeError(w, err)
			return
		}
		writeResponseBytes(w, resp)
		return
	}
	ws.resp, err = s.renderPredict(ws, ws.resp[:0], body, p, st)
	if err != nil {
		writeError(w, err)
		return
	}
	writeResponseBytes(w, ws.resp)
}

// handlePredictBatch predicts an array of plans (JSON array, or a binary
// batch frame under plan.BinaryContentType) in one request. The batch is
// deduplicated against the fingerprint cache — repeated sub-plans across
// entries cost one forward pass — and the misses fan out across the
// server's worker pool in input order. The response is a JSON array of
// Prediction documents in input order; a bad entry fails the request with
// its index ("plan[17]: ...").
func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowOnly(w, r, http.MethodPost) {
		return
	}
	defer s.trackInflight()()
	p, err := wire.ParseParams(r)
	if err != nil {
		writeError(w, err)
		return
	}
	_, st, handled := s.resolve(w, p)
	if handled {
		return
	}

	ws := wirePool.Get().(*wireScratch)
	defer wirePool.Put(ws)
	body, err := ws.ReadBody(r.Body, wire.MaxBatchBody)
	if err != nil {
		writeError(w, err)
		return
	}

	// Decode every entry up front into ws.batch, which owns a copy of each
	// plan's flat arrays and its fingerprint.
	batch := &ws.batch
	batch.Reset()
	err = ws.DecodeBatch(body, p, func(f *plan.FlatPlan) error {
		batch.Append(f)
		return nil
	})
	if err != nil {
		writeError(w, err)
		return
	}

	preds, err := s.batchPreds(batch, st)
	if err != nil {
		writeError(w, err)
		return
	}
	out := append(ws.resp[:0], '[')
	for i := range preds {
		if i > 0 {
			out = append(out, ',')
		}
		f := batch.At(i)
		if out, err = appendPrediction(out, &f, preds[i]); err != nil {
			writeError(w, err)
			return
		}
	}
	ws.resp = append(out, ']', '\n')
	writeResponseBytes(w, ws.resp)
}

// batchPreds resolves predictions for a whole batch within the request's
// tenant domain: cache hits and intra-batch duplicates are served from one
// compute, and the remaining misses fan out across the worker pool, one
// flat forward each (the request brings its own parallelism, so it bypasses
// the admission stage). Cache keys come from the fingerprints the decoders
// already computed — nothing is hashed twice. A forward that panics fails
// the batch it belongs to (nn.ParallelFor re-raises a worker's panic here, on
// the handler's goroutine) and caches nothing.
func (s *Server) batchPreds(batch *plan.FlatBatch, st *tenant.State) (_ [][]float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", errPanicked, p)
		}
	}()
	out := make([][]float64, batch.Len())
	predict := func(i int) {
		f := batch.At(i)
		out[i] = st.View.AppendPredictSubPlansFlat(nil, &f)
	}
	if s.preds == nil {
		nn.ParallelFor(len(out), s.Workers, predict)
		return out, nil
	}
	keys := make([]servecache.Key, len(out))
	firstOf := make(map[servecache.Key]int, len(out))
	var missIdx []int
	for i := range out {
		keys[i] = st.Key(servecache.Key(batch.At(i).Fingerprint))
		if v, ok := s.preds.Get(keys[i]); ok {
			out[i] = v
			continue
		}
		if _, dup := firstOf[keys[i]]; dup {
			continue // filled from the first occurrence below
		}
		firstOf[keys[i]] = i
		missIdx = append(missIdx, i)
	}
	nn.ParallelFor(len(missIdx), s.Workers, func(mi int) { predict(missIdx[mi]) })
	for _, i := range missIdx {
		s.preds.Put(keys[i], out[i])
	}
	for i := range out {
		if out[i] == nil {
			out[i] = out[firstOf[keys[i]]]
		}
	}
	return out, nil
}

// Health is the /healthz response. PlanCache/BodyCache are present only
// when the caches are on.
type Health struct {
	Status       string       `json:"status"`
	Ready        bool         `json:"ready"`
	ModelVersion int          `json:"model_version"`
	Build        version.Info `json:"build"`
	Parameters   int          `json:"parameters"`
	SizeMB       float64      `json:"size_mb"`
	LoRAEnabled  bool         `json:"lora_enabled"`
	// Inflight is the prediction-request gauge (both /predict endpoints)
	// and InflightHWM the highest concurrency this replica has absorbed.
	Inflight    int64             `json:"inflight"`
	InflightHWM int64             `json:"inflight_hwm"`
	PlanCache   *servecache.Stats `json:"plan_cache,omitempty"`
	BodyCache   *servecache.Stats `json:"body_cache,omitempty"`
	Queue       *QueueStats       `json:"queue,omitempty"`
	// Tenant state (absent with no named tenant): how many are registered
	// and which adapter artifact version each one serves — so an operator
	// can confirm a promotion landed without scraping /metrics.
	Tenants        int            `json:"tenants,omitempty"`
	TenantVersions map[string]int `json:"tenant_versions,omitempty"`
}

// QueueStats snapshots the admission stage. The JSON names date from the
// micro-batcher it replaced; every request is its own forward pass now, so
// Batches always equals Requests.
type QueueStats struct {
	Depth    int    `json:"depth"`            // requests waiting for a slot right now
	DepthHWM int64  `json:"depth_hwm"`        // most that have ever waited at once
	Capacity int    `json:"capacity"`         // wait bound (QueueDepth)
	Batches  uint64 `json:"batches"`          // forward passes run
	Requests uint64 `json:"batched_requests"` // requests served through them (== Batches)
	Rejected uint64 `json:"rejected"`         // 503s from a full wait queue or shutdown
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowOnly(w, r, http.MethodGet) {
		return
	}
	m, v := s.Served()
	h := Health{
		Status:       "ok",
		Ready:        s.Ready(),
		ModelVersion: v,
		Build:        version.Get(),
	}
	if m != nil {
		h.Parameters = nn.NumParams(m.Params())
		h.SizeMB = nn.SizeMB(m.Params())
		h.LoRAEnabled = m.LoRAEnabled()
	}
	h.Inflight, h.InflightHWM = s.Inflight()
	if s.preds != nil {
		pc, bc := s.preds.Stats(), s.bodies.Stats()
		h.PlanCache, h.BodyCache = &pc, &bc
	}
	qs := s.bat.stats()
	h.Queue = &qs
	h.TenantVersions = s.reg.Versions()
	h.Tenants = len(h.TenantVersions)
	writeJSON(w, h)
}

// bufPool recycles request/response buffers across requests; buffers keep
// their grown capacity, so steady-state serving stops allocating them.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON buffers the whole encode before touching the ResponseWriter,
// so an encode failure yields a clean 500 rather than a second JSON object
// appended to a partially written body.
func writeJSON(w http.ResponseWriter, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

// writeError maps pipeline errors to HTTP statuses: overload and shutdown
// are retryable 503s (with Retry-After, so well-behaved clients back off), a
// forward pass that panicked is the server's fault (500); the request edge
// owns the rest (413 for an oversized body, else 400).
func writeError(w http.ResponseWriter, err error) {
	if errors.Is(err, errPanicked) {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if errors.Is(err, errQueueFull) || errors.Is(err, errClosed) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	wire.WriteError(w, err)
}
