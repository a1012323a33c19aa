package dace_test

// Micro-benchmarks for the hot paths (planning, execution labeling, DACE
// training and inference). The paper's tables and figures are regenerated by
// `go run ./cmd/experiments -run <artifact>`, and nowhere else.

import (
	"fmt"
	"runtime"
	"testing"

	"dace/internal/core"
	"dace/internal/dataset"
	"dace/internal/executor"
	"dace/internal/optimizer"
	"dace/internal/plan"
	"dace/internal/schema"
	"dace/internal/workload"
)

func BenchmarkPlannerIMDB(b *testing.B) {
	db := schema.IMDB()
	pl := optimizer.New(db)
	qs := workload.Complex(db, 100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Plan(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecutorLabeling(b *testing.B) {
	db := schema.IMDB()
	pl := optimizer.New(db)
	ex := executor.New(db, executor.M1())
	qs := workload.Complex(db, 100, 2)
	plans := make([]*plan.Plan, len(qs))
	for i, q := range qs {
		p, err := pl.Plan(q)
		if err != nil {
			b.Fatal(err)
		}
		plans[i] = p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Run(plans[i%len(plans)], qs[i%len(qs)].ID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDACETrainingStep(b *testing.B) {
	samples, err := dataset.ComplexWorkload(schema.IMDB(), 64, executor.M1())
	if err != nil {
		b.Fatal(err)
	}
	plans := dataset.Plans(samples)
	cfg := core.DefaultConfig()
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Train(plans, cfg)
	}
	b.ReportMetric(float64(len(plans)), "plans/epoch")
}

func BenchmarkDACEInference(b *testing.B) {
	samples, err := dataset.ComplexWorkload(schema.IMDB(), 128, executor.M1())
	if err != nil {
		b.Fatal(err)
	}
	plans := dataset.Plans(samples)
	cfg := core.DefaultConfig()
	cfg.Epochs = 4
	m := core.Train(plans[:64], cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(plans[64+i%64])
	}
}

func BenchmarkDACESubPlanInference(b *testing.B) {
	samples, err := dataset.ComplexWorkload(schema.IMDB(), 128, executor.M1())
	if err != nil {
		b.Fatal(err)
	}
	plans := dataset.Plans(samples)
	cfg := core.DefaultConfig()
	cfg.Epochs = 4
	m := core.Train(plans[:64], cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictSubPlans(plans[64+i%64])
	}
}

func BenchmarkLoRAFineTuneEpoch(b *testing.B) {
	samples, err := dataset.ComplexWorkload(schema.IMDB(), 64, executor.M1())
	if err != nil {
		b.Fatal(err)
	}
	plans := dataset.Plans(samples)
	cfg := core.DefaultConfig()
	cfg.Epochs = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := core.Train(plans, cfg)
		b.StartTimer()
		m.FineTuneLoRA(plans, 2e-3, 1)
	}
}

// BenchmarkTrainParallel measures data-parallel training throughput across
// worker counts at QuickConfig-like scale. The trained weights are bitwise
// identical at every worker count (per-plan gradient shards reduce in fixed
// plan order); only wall-clock changes.
func BenchmarkTrainParallel(b *testing.B) {
	samples, err := dataset.ComplexWorkload(schema.IMDB(), 96, executor.M1())
	if err != nil {
		b.Fatal(err)
	}
	plans := dataset.Plans(samples)
	counts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g > 4 {
		counts = append(counts, g)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Epochs = 1
			cfg.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Train(plans, cfg)
			}
			plansPerSec := float64(len(plans)) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(plansPerSec, "plans/sec")
		})
	}
}

// BenchmarkPredictBatch measures batch-inference throughput across worker
// counts, reporting plans/sec.
func BenchmarkPredictBatch(b *testing.B) {
	samples, err := dataset.ComplexWorkload(schema.IMDB(), 256, executor.M1())
	if err != nil {
		b.Fatal(err)
	}
	plans := dataset.Plans(samples)
	cfg := core.DefaultConfig()
	cfg.Epochs = 4
	m := core.Train(plans[:64], cfg)
	test := plans[64:]
	counts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g > 4 {
		counts = append(counts, g)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.PredictBatch(test, workers)
			}
			plansPerSec := float64(len(test)) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(plansPerSec, "plans/sec")
		})
	}
}
