package gateway

import (
	"net/http"
	"time"

	"dace/internal/telemetry"
	"dace/internal/wire"
)

// Telemetry for the gateway, modeled on the serve layer's: per-endpoint
// request/latency instruments captured at wiring time (no lookups on the
// request path), and the replica pool's existing atomic counters exported
// through scrape-time CounterFunc collectors that cost routing nothing. A
// nil Config.Metrics leaves the hot path exactly as uninstrumented code.

type endpointMetrics struct {
	byClass [6]*telemetry.Counter // index = status/100; [0] unused
	latency *telemetry.Histogram
}

func (em *endpointMetrics) observe(code int, d time.Duration) {
	cls := code / 100
	if cls < 1 || cls > 5 {
		cls = 5
	}
	em.byClass[cls].Inc()
	em.latency.Observe(d.Seconds())
}

type gatewayMetrics struct {
	reg       *telemetry.Registry
	endpoints map[string]*endpointMetrics
}

var statusClasses = [...]string{"", "1xx", "2xx", "3xx", "4xx", "5xx"}

// newGatewayMetrics registers the gateway metric families. Called once from
// New, before any request is served.
func newGatewayMetrics(g *Gateway, reg *telemetry.Registry) *gatewayMetrics {
	gm := &gatewayMetrics{reg: reg, endpoints: map[string]*endpointMetrics{}}
	for _, ep := range []string{"/predict", "/predict/batch"} {
		em := &endpointMetrics{}
		for cls := 1; cls <= 5; cls++ {
			em.byClass[cls] = reg.Counter("dace_gateway_requests_total",
				"Gateway requests by endpoint and status class.",
				telemetry.Label{Name: "endpoint", Value: ep},
				telemetry.Label{Name: "class", Value: statusClasses[cls]})
		}
		em.latency = reg.Histogram("dace_gateway_request_seconds",
			"Gateway request latency (includes the upstream hop).",
			telemetry.LatencyBounds(),
			telemetry.Label{Name: "endpoint", Value: ep})
		gm.endpoints[ep] = em
	}
	for _, rep := range g.pool.replicas {
		rep := rep
		label := telemetry.Label{Name: "replica", Value: rep.Name}
		reg.CounterFunc("dace_gateway_replica_requests_total",
			"Upstream round trips attempted per replica.",
			func() uint64 { return rep.requests.Load() }, label)
		reg.CounterFunc("dace_gateway_replica_errors_total",
			"Upstream transport failures per replica (each one ejects).",
			func() uint64 { return rep.errored.Load() }, label)
		reg.CounterFunc("dace_gateway_replica_rejected_total",
			"Backpressure rejections (503) issued for a saturated replica.",
			func() uint64 { return rep.rejected.Load() }, label)
		reg.CounterFunc("dace_gateway_replica_ejections_total",
			"Healthy-to-ejected transitions per replica.",
			func() uint64 { return rep.ejections.Load() }, label)
		reg.GaugeFunc("dace_gateway_replica_healthy",
			"Whether the replica is currently in the routing ring.",
			func() float64 {
				if rep.Healthy() {
					return 1
				}
				return 0
			}, label)
		reg.GaugeFunc("dace_gateway_replica_inflight",
			"In-flight upstream requests per replica.",
			func() float64 { return float64(rep.inflight.Load()) }, label)
		reg.GaugeFunc("dace_gateway_replica_inflight_hwm",
			"Highest in-flight concurrency the replica has absorbed.",
			func() float64 { return float64(rep.inflightHWM.Load()) }, label)
	}
	reg.GaugeFunc("dace_gateway_replicas_healthy",
		"Number of replicas currently in the routing ring.",
		func() float64 { return float64(g.pool.healthyCount()) })
	return gm
}

// instrument wraps a handler with its endpoint's instruments. With metrics
// off it returns the handler untouched — zero overhead.
func (g *Gateway) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	if g.tel == nil {
		return h
	}
	return wire.Instrument(h, g.tel.endpoints[endpoint].observe)
}
