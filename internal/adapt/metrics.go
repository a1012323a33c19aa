package adapt

import (
	"dace/internal/nn"
	"dace/internal/telemetry"
)

// EnableMetrics exports the controller into reg: the attempt/outcome
// counters and drift state are sampled from StatusNow at scrape time (they
// already live behind the controller mutex), and fine-tune runs get
// per-epoch training instruments via nn.TrainHooks on the candidate model.
// Call before the controller is used; safe to call with a nil registry
// (no-op).
func (c *Controller) EnableMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("dace_adapt_runs_total", "Fine-tune attempts started (manual, timer, or drift).",
		func() uint64 { return uint64(c.StatusNow().Runs) })
	reg.CounterFunc("dace_adapt_promotions_total", "Candidates that passed the gate and were promoted.",
		func() uint64 { return uint64(c.StatusNow().Promotions) })
	reg.CounterFunc("dace_adapt_rejections_total", "Candidates the gate discarded.",
		func() uint64 { return uint64(c.StatusNow().Rejections) })
	reg.GaugeFunc("dace_adapt_model_version", "Artifact version currently served (0 = seed model).",
		func() float64 { return float64(c.StatusNow().ModelVersion) })
	reg.GaugeFunc("dace_adapt_drift_qerror_median", "Rolling median q-error of served predictions.",
		func() float64 { return c.StatusNow().DriftMedian })
	reg.GaugeFunc("dace_adapt_drift_window_size", "Observations currently in the drift window.",
		func() float64 { return float64(c.StatusNow().DriftN) })
	reg.GaugeFunc("dace_adapt_running", "1 while a fine-tune attempt is in flight.",
		func() float64 {
			if c.StatusNow().Running {
				return 1
			}
			return 0
		})
	c.Hooks = newTrainMetrics(reg)
}

// trainMetrics implements nn.TrainHooks over lock-free instruments, so the
// fit loop's once-per-epoch callback is a handful of atomic stores. The
// last-epoch gauges expose live training state; the counter accumulates
// across runs.
type trainMetrics struct {
	epochs      *telemetry.Counter
	loss        *telemetry.Gauge // mean per-plan loss, last epoch
	plansPerSec *telemetry.Gauge
	utilization *telemetry.Gauge
}

func newTrainMetrics(reg *telemetry.Registry) *trainMetrics {
	return &trainMetrics{
		epochs: reg.Counter("dace_adapt_train_epochs_total",
			"Fine-tune epochs completed across all adaptation runs."),
		loss: reg.Gauge("dace_adapt_train_loss",
			"Mean per-plan training loss of the most recent epoch."),
		plansPerSec: reg.Gauge("dace_adapt_train_plans_per_second",
			"Training throughput of the most recent epoch."),
		utilization: reg.Gauge("dace_adapt_train_worker_utilization",
			"Gradient-pool worker utilization of the most recent epoch (0-1)."),
	}
}

var _ nn.TrainHooks = (*trainMetrics)(nil)

func (t *trainMetrics) EpochDone(epoch int, s nn.EpochStats) {
	t.epochs.Inc()
	t.loss.Set(s.Loss)
	if s.Duration > 0 {
		t.plansPerSec.Set(float64(s.Plans) / s.Duration.Seconds())
	}
	t.utilization.Set(s.WorkerUtilization)
}
