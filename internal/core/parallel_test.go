package core

import (
	"testing"

	"dace/internal/executor"
	"dace/internal/schema"
)

// paramsEqualBitwise compares every parameter of two models for exact
// (bitwise) equality and reports the first mismatch.
func paramsEqualBitwise(t *testing.T, a, b *Model) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("param count differs: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
				t.Fatalf("param %s[%d]: %v vs %v — training is not worker-count invariant",
					pa[i].Name, j, pa[i].Value.Data[j], pb[i].Value.Data[j])
			}
		}
	}
}

// workerCounts is one worker, fewer than the default batch of 16 (dividing
// it and not), and more than the batch.
var workerCounts = []int{1, 2, 3, 8, 21}

// TestTrainDeterministicAcrossWorkerCounts: for a fixed seed, training with
// any worker count must produce bitwise-identical parameters and identical
// predictions, because each parameter's gradient is formed plan by plan in
// fixed order regardless of goroutine scheduling, and nothing a plan
// contributes depends on which worker's tape it ran on.
func TestTrainDeterministicAcrossWorkerCounts(t *testing.T) {
	plans := workloadPlans(t, schema.BenchmarkDB("airline"), 80, executor.M1())
	train := func(workers int) *Model {
		cfg := smallConfig()
		cfg.Epochs = 4
		cfg.Workers = workers
		return Train(plans, cfg)
	}
	m1 := train(workerCounts[0])
	for _, workers := range workerCounts[1:] {
		mw := train(workers)
		paramsEqualBitwise(t, m1, mw)
		for _, p := range plans[:10] {
			if a, b := m1.Predict(p), mw.Predict(p); a != b {
				t.Fatalf("Predict differs between 1 and %d workers: %v vs %v", workers, a, b)
			}
		}
	}
}

// TestFineTuneLoRADeterministicAcrossWorkerCounts covers the cached-
// attention fast path: LoRA fine-tuning must be worker-count invariant too.
func TestFineTuneLoRADeterministicAcrossWorkerCounts(t *testing.T) {
	m1Plans := workloadPlans(t, schema.BenchmarkDB("walmart"), 80, executor.M1())
	m2Plans := workloadPlans(t, schema.BenchmarkDB("walmart"), 60, executor.M2())
	cfg := smallConfig()
	cfg.Epochs = 3
	base := Train(m1Plans, cfg)
	tune := func(workers int) *Model {
		m := base.Clone()
		m.Cfg.Workers = workers
		m.FineTuneLoRA(m2Plans, 2e-3, 3)
		return m
	}
	m1 := tune(workerCounts[0])
	for _, workers := range workerCounts[1:] {
		paramsEqualBitwise(t, m1, tune(workers))
	}
}

// TestPredictBatchMatchesSerial asserts parallel batch inference returns
// exactly what serial Predict/PredictSubPlans return, in input order.
func TestPredictBatchMatchesSerial(t *testing.T) {
	plans := workloadPlans(t, schema.BenchmarkDB("airline"), 60, executor.M1())
	cfg := smallConfig()
	cfg.Epochs = 3
	m := Train(plans[:40], cfg)

	test := plans[40:]
	batch := m.PredictBatch(test, 4)
	if len(batch) != len(test) {
		t.Fatalf("got %d predictions for %d plans", len(batch), len(test))
	}
	for i, p := range test {
		if want := m.Predict(p); batch[i] != want {
			t.Fatalf("plan %d: batch %v vs serial %v", i, batch[i], want)
		}
	}

	subBatch := m.PredictSubPlansBatch(test, 4)
	for i, p := range test {
		want := m.PredictSubPlans(p)
		if len(subBatch[i]) != len(want) {
			t.Fatalf("plan %d: %d sub-plan predictions, want %d", i, len(subBatch[i]), len(want))
		}
		for j := range want {
			if subBatch[i][j] != want[j] {
				t.Fatalf("plan %d node %d: batch %v vs serial %v", i, j, subBatch[i][j], want[j])
			}
		}
	}

	if got := m.PredictBatch(nil, 4); len(got) != 0 {
		t.Fatalf("empty batch must predict nothing, got %v", got)
	}
}
