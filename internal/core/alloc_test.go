package core

import (
	"runtime"
	"testing"

	"dace/internal/executor"
	"dace/internal/featurize"
	"dace/internal/schema"
)

// TestPredictSteadyStateAllocs is the PR's acceptance guard: after pools
// warm up, Model.Predict must do at most 10 allocations per call (the
// budget covers sync.Pool slow paths; the encode and forward arithmetic
// itself is allocation-free).
func TestPredictSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	plans := workloadPlans(t, schema.IMDB(), 40, executor.M1())
	cfg := smallConfig()
	cfg.Epochs = 2
	m := Train(plans, cfg)
	for _, p := range plans {
		m.Predict(p)
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		m.Predict(plans[i%len(plans)])
		i++
	})
	if avg > 10 {
		t.Fatalf("Predict allocates %.2f/op at steady state, want <= 10", avg)
	}
}

// TestPredictSubPlansSteadyStateAllocs bounds the tape path: the per-call
// result slice is the only required allocation, so leave a small margin
// for pool slow paths.
func TestPredictSubPlansSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	plans := workloadPlans(t, schema.IMDB(), 40, executor.M1())
	cfg := smallConfig()
	cfg.Epochs = 2
	m := Train(plans, cfg)
	for _, p := range plans {
		m.PredictSubPlans(p)
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		m.PredictSubPlans(plans[i%len(plans)])
		i++
	})
	if avg > 10 {
		t.Fatalf("PredictSubPlans allocates %.2f/op at steady state, want <= 10", avg)
	}
}

// TestAppendPredictSubPlansZeroAllocs is the serving-layer guard: with a
// recycled result buffer the sub-plan path must be allocation-free at
// steady state — the last per-call allocation (the result slice) is gone.
func TestAppendPredictSubPlansZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	plans := workloadPlans(t, schema.IMDB(), 40, executor.M1())
	cfg := smallConfig()
	cfg.Epochs = 2
	m := Train(plans, cfg)
	buf := make([]float64, 0, 256)
	for _, p := range plans {
		buf = m.AppendPredictSubPlans(buf[:0], p)
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		buf = m.AppendPredictSubPlans(buf[:0], plans[i%len(plans)])
		i++
	})
	if avg != 0 {
		t.Fatalf("AppendPredictSubPlans allocates %.2f/op at steady state, want 0", avg)
	}
}

// TestFitBytesIndependentOfBatchSize: a fit allocates nothing the size of
// the parameters per minibatch *item* — tapes (and their arenas, the bulk
// of training's memory) are per worker, and a worker's tape holds each
// item's activations, not its gradient. With one worker the tape sees the
// same plans in the same order whatever the batch size, so a fit at
// BatchSize 64 may allocate more than one at 16 by at most what 48
// parameter-sized buffers would take — the bound from when every item had
// one, kept. Each fit starts on empty pools — two collections drain a
// sync.Pool — so what is compared is what a fit needs, not what the fit
// before it happened to leave behind (TestFitReturnsItsMemory covers that).
func TestFitBytesIndependentOfBatchSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	plans := workloadPlans(t, schema.BenchmarkDB("airline"), 64, executor.M1())
	cfg := DefaultConfig()
	cfg.Workers = 1
	seed := Train(plans, cfg)
	encoded := encodeAll(seed, plans, (*featurize.Encoder).Encode)
	fitBytes := func(batch int) uint64 {
		m := seed.Clone()
		m.Cfg.BatchSize = batch
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.fit(encoded, cfg.LR, 1)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	shard := uint64(0) // a parameter-sized buffer plus its matrix headers
	for _, p := range seed.Params() {
		shard += uint64(8*len(p.Value.Data)) + 64
	}
	shard += shard / 8 // the allocator's size-class rounding
	small, large := fitBytes(16), fitBytes(64)
	if extra, allowed := large-small, 48*shard+(4<<10); large < small || extra > allowed {
		t.Fatalf("fit allocated %d bytes at BatchSize 16 and %d at 64: %d apart, want at most 48 parameter-sized buffers (%d)",
			small, large, int64(large)-int64(small), allowed)
	}
}
