// Package telemetry is DACE's dependency-free instrumentation subsystem:
// atomic counters and gauges, lock-free sharded log-scale histograms, a
// process-wide Registry of named metric families, and a Prometheus
// text-exposition encoder.
//
// The design constraint is the same one the allocation-free hot path
// (DESIGN.md §7) lives under: instrumenting a code path must cost a handful
// of nanoseconds and zero allocations, because the serving layer's
// lightweight-estimator story collapses if observing it is expensive.
// Concretely:
//
//   - Counter.Inc and Gauge.Set are single atomic operations on a direct
//     pointer the instrumented code captured at wiring time — no map
//     lookups, no label hashing, no interface dispatch on the hot path.
//   - Histogram.Observe computes its bucket from the raw float64 bit
//     pattern (log2 octave + mantissa sub-bucket, a fixed layout shared by
//     every histogram) and does one atomic add into one of a small number
//     of cache-line-independent shards.
//   - Scrape-time work (merging shards, cumulative bucket sums, text
//     encoding) happens only when /metrics is read.
//
// Existing subsystems that already keep their own counters
// (servecache, the admission stage, the feedback store) are exposed through
// CounterFunc/GaugeFunc collectors that sample those counters at scrape
// time, so enabling telemetry adds zero work to their hot paths.
package telemetry

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready to
// use, but counters are normally created through Registry.Counter so they
// appear in the exposition.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, stored as atomic bits.
// The zero value reads as 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }
