package feedback

import "dace/internal/telemetry"

// RegisterMetrics exports the replay store and (when non-nil) the durable
// log into reg through scrape-time collectors. The store and log keep their
// own counters under their own locks; sampling them at scrape time costs the
// ingest path nothing. Safe to call with a nil registry (no-op).
func RegisterMetrics(reg *telemetry.Registry, store *Store, log *Log) {
	if reg == nil || store == nil {
		return
	}
	reg.GaugeFunc("dace_feedback_replay_size", "Distinct plans resident in the replay buffer.",
		func() float64 { return float64(store.Stats().Size) })
	reg.GaugeFunc("dace_feedback_replay_capacity", "Replay buffer capacity (distinct plans).",
		func() float64 { return float64(store.Stats().Capacity) })
	reg.CounterFunc("dace_feedback_offered_total", "Distinct plans ever offered to the replay buffer.",
		func() uint64 { return uint64(store.Stats().Offered) })
	reg.CounterFunc("dace_feedback_updated_total", "Refreshes of an already-resident plan (latest observation wins).",
		func() uint64 { return store.Stats().Updated })
	reg.CounterFunc("dace_feedback_dropped_total", "Reservoir rejections after the buffer filled.",
		func() uint64 { return store.Stats().Dropped })
	if log == nil {
		return
	}
	reg.GaugeFunc("dace_feedback_log_bytes", "Current size of the durable feedback log.",
		func() float64 { return float64(log.Stats().Bytes) })
	reg.CounterFunc("dace_feedback_log_records_total", "Records appended to the feedback log since open.",
		func() uint64 { return log.Stats().Appended })
	reg.GaugeFunc("dace_feedback_log_truncated_bytes", "Torn-tail bytes trimmed when the log was opened.",
		func() float64 { return float64(log.Stats().Truncated) })
}
