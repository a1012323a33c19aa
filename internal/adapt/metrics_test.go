package adapt

import (
	"log/slog"
	"strings"
	"testing"

	"dace/internal/core"
	"dace/internal/executor"
	"dace/internal/feedback"
	"dace/internal/schema"
	"dace/internal/telemetry"
)

// TestEnableMetricsExportsControllerAndTraining runs one real fine-tune with
// metrics and a structured logger wired, then checks the exposition reflects
// the run: attempt counters advanced, the training hooks fired (epochs
// counter, throughput/utilization gauges), and the promote/reject event was
// logged.
func TestEnableMetricsExportsControllerAndTraining(t *testing.T) {
	db := schema.BenchmarkDB("airline")
	m1Plans := workloadPlans(t, db, 120, executor.M1())
	m2Plans := workloadPlans(t, db, 120, executor.M2())
	seed := core.Train(m1Plans[:100], smallConfig())

	host := &fakeHost{m: seed}
	store := feedback.NewStore(256, 1)
	fillStore(store, seed, m2Plans)

	var logBuf strings.Builder
	epochs := 4
	c := New(host, store, nil, Config{
		MinSamples: 50,
		Gate:       0.02,
		Epochs:     epochs,
		Seed:       7,
		Logger:     slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	reg := telemetry.NewRegistry()
	c.EnableMetrics(reg)

	if _, err := c.RunOnce(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"dace_adapt_runs_total 1",
		"dace_adapt_train_epochs_total 4",
		"# TYPE dace_adapt_drift_qerror_median gauge",
		"# TYPE dace_adapt_train_worker_utilization gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// One of the outcome counters must have advanced, matching the log event.
	promoted := strings.Contains(text, "dace_adapt_promotions_total 1")
	rejected := strings.Contains(text, "dace_adapt_rejections_total 1")
	if promoted == rejected {
		t.Errorf("exactly one outcome counter should be 1 (promoted=%v rejected=%v)", promoted, rejected)
	}
	logged := logBuf.String()
	if promoted && !strings.Contains(logged, "adapt promoted candidate") {
		t.Errorf("promotion not logged: %s", logged)
	}
	if rejected && !strings.Contains(logged, "adapt gate rejected candidate") {
		t.Errorf("rejection not logged: %s", logged)
	}
	// Throughput and utilization gauges hold the last epoch's values.
	if strings.Contains(text, "dace_adapt_train_plans_per_second 0\n") {
		t.Error("plans/sec gauge never set")
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}
