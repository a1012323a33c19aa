package serve

import (
	"net/http"
	"time"

	"dace/internal/servecache"
	"dace/internal/telemetry"
	"dace/internal/wire"
)

// Telemetry for the serving pipeline, always on: the instrument pointers
// below are captured at construction, so instrumented handlers do no
// lookups, and subsystems that already keep atomic counters (the
// prediction caches, the admission stage) are exported through scrape-time
// CounterFunc/GaugeFunc collectors that cost serving nothing.

// endpointMetrics is the per-endpoint instrument set: request counts by
// status class, a latency histogram, and (for body-accepting endpoints)
// dedicated 413/503 rejection counters.
type endpointMetrics struct {
	byClass [6]*telemetry.Counter // index = status/100; [0] unused
	latency *telemetry.Histogram
	r413    *telemetry.Counter // nil when the endpoint takes no body
	r503    *telemetry.Counter
}

// observe records one completed request. Two atomic adds and a histogram
// observe — the entire per-request cost of telemetry.
func (em *endpointMetrics) observe(code int, d time.Duration) {
	cls := code / 100
	if cls < 1 || cls > 5 {
		cls = 5
	}
	em.byClass[cls].Inc()
	em.latency.Observe(d.Seconds())
	switch {
	case code == http.StatusRequestEntityTooLarge && em.r413 != nil:
		em.r413.Inc()
	case code == http.StatusServiceUnavailable && em.r503 != nil:
		em.r503.Inc()
	}
}

// serverMetrics holds the server's instruments, keyed by endpoint path at
// wiring time only — handlers capture their endpointMetrics pointer once.
type serverMetrics struct {
	reg       *telemetry.Registry
	endpoints map[string]*endpointMetrics
	feedback  *telemetry.Counter // accepted /feedback observations
}

var statusClasses = [...]string{"", "1xx", "2xx", "3xx", "4xx", "5xx"}

// newServerMetrics registers the serve-layer metric families on reg and
// wires scrape-time collectors for the caches and the admission stage.
// Called from NewWithConfig before the Server is handed out, so no field it
// sets is ever written concurrently with serving.
func newServerMetrics(s *Server, reg *telemetry.Registry) *serverMetrics {
	sm := &serverMetrics{reg: reg, endpoints: make(map[string]*endpointMetrics)}

	bodyEndpoints := map[string]bool{"/predict": true, "/predict/batch": true, "/feedback": true}
	for _, ep := range []string{"/predict", "/predict/batch", "/feedback", "/adapt/status", "/adapt/trigger", "/healthz", "/metrics", "/model/load", "/model", "/tenants"} {
		em := &endpointMetrics{
			latency: reg.Histogram("dace_http_request_seconds",
				"HTTP request latency by endpoint.",
				telemetry.LatencyBounds(), telemetry.Label{Name: "endpoint", Value: ep}),
		}
		for cls := 1; cls <= 5; cls++ {
			em.byClass[cls] = reg.Counter("dace_http_requests_total",
				"HTTP requests by endpoint and status class.",
				telemetry.Label{Name: "endpoint", Value: ep},
				telemetry.Label{Name: "code", Value: statusClasses[cls]})
		}
		if bodyEndpoints[ep] {
			em.r413 = reg.Counter("dace_http_rejected_total",
				"Requests rejected with 413 (body too large) or 503 (queue full / draining).",
				telemetry.Label{Name: "endpoint", Value: ep},
				telemetry.Label{Name: "code", Value: "413"})
			em.r503 = reg.Counter("dace_http_rejected_total",
				"Requests rejected with 413 (body too large) or 503 (queue full / draining).",
				telemetry.Label{Name: "endpoint", Value: ep},
				telemetry.Label{Name: "code", Value: "503"})
		}
		sm.endpoints[ep] = em
	}
	sm.feedback = reg.Counter("dace_feedback_observations_total",
		"Feedback observations accepted by POST /feedback.")

	// Cache and admission counters already exist inside their
	// subsystems; export them by sampling at scrape time.
	if s.preds != nil {
		for _, cc := range []struct {
			label string
			cache interface{ Stats() servecache.Stats }
		}{{"plan", s.preds}, {"body", s.bodies}} {
			cc := cc
			counter := func(f func(st servecache.Stats) uint64) func() uint64 {
				return func() uint64 { return f(cc.cache.Stats()) }
			}
			gauge := func(f func(st servecache.Stats) float64) func() float64 {
				return func() float64 { return f(cc.cache.Stats()) }
			}
			lbl := telemetry.Label{Name: "cache", Value: cc.label}
			reg.CounterFunc("dace_cache_hits_total", "Prediction-cache hits.",
				counter(func(st servecache.Stats) uint64 { return st.Hits }), lbl)
			reg.CounterFunc("dace_cache_misses_total", "Prediction-cache misses.",
				counter(func(st servecache.Stats) uint64 { return st.Misses }), lbl)
			reg.CounterFunc("dace_cache_evictions_total", "Prediction-cache LRU evictions.",
				counter(func(st servecache.Stats) uint64 { return st.Evictions }), lbl)
			reg.CounterFunc("dace_cache_coalesced_total", "Misses coalesced onto an in-flight compute.",
				counter(func(st servecache.Stats) uint64 { return st.Coalesced }), lbl)
			reg.GaugeFunc("dace_cache_entries", "Resident prediction-cache entries.",
				gauge(func(st servecache.Stats) float64 { return float64(st.Entries) }), lbl)
			reg.GaugeFunc("dace_cache_capacity", "Prediction-cache entry capacity.",
				gauge(func(st servecache.Stats) float64 { return float64(st.Capacity) }), lbl)
		}
	}
	reg.GaugeFunc("dace_inflight_requests", "Prediction requests being served right now.",
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("dace_inflight_requests_hwm", "Highest prediction-request concurrency absorbed.",
		func() float64 { return float64(s.inflightHWM.Load()) })
	// The dace_batch_* names are the micro-batcher's, kept for dashboards;
	// what they count now is the admission stage (batcher.go).
	b := s.bat
	reg.GaugeFunc("dace_batch_queue_depth", "Requests waiting for a forward slot right now.",
		func() float64 { return float64(b.stats().Depth) })
	reg.GaugeFunc("dace_batch_queue_depth_hwm", "Most requests that have ever waited for a forward slot at once.",
		func() float64 { return float64(b.stats().DepthHWM) })
	reg.GaugeFunc("dace_batch_queue_capacity", "Bound on requests waiting for a forward slot (QueueDepth).",
		func() float64 { return float64(b.depth) })
	reg.CounterFunc("dace_batches_total", "Forward passes run behind the admission stage; equals dace_batched_requests_total.",
		func() uint64 { return b.stats().Batches })
	reg.CounterFunc("dace_batched_requests_total", "Requests served through the admission stage.",
		func() uint64 { return b.stats().Requests })
	reg.CounterFunc("dace_batch_rejected_total", "Submissions rejected by a full wait queue or shutdown.",
		func() uint64 { return b.stats().Rejected })
	b.waitHist = reg.Histogram("dace_batch_wait_seconds",
		"Time spent waiting for a forward slot; requests admitted at once are not observed.",
		telemetry.LatencyBounds())
	return sm
}

// instrument wraps a handler with request counting and latency observation
// for one endpoint.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return wire.Instrument(h, s.tel.endpoints[endpoint].observe)
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowOnly(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.tel.reg.WritePrometheus(w); err != nil {
		// Headers are gone; nothing useful left to send.
		return
	}
}
