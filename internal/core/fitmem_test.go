package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"dace/internal/executor"
	"dace/internal/featurize"
	"dace/internal/nn"
	"dace/internal/plan"
	"dace/internal/schema"
)

// epochLosses records what fit reports per epoch.
type epochLosses []float64

func (l *epochLosses) EpochDone(_ int, s nn.EpochStats) { *l = append(*l, s.Loss) }

// fitResult is everything a fit leaves behind that a caller can observe:
// every weight, every epoch's loss, and predictions on the plans given.
func fitResult(m *Model, losses epochLosses, plans []*plan.Plan) []float64 {
	out := append([]float64(nil), losses...)
	for _, p := range m.Params() {
		out = append(out, p.Value.Data...)
	}
	for _, p := range plans {
		out = append(out, m.Predict(p))
	}
	return out
}

// trainAndTune is Train on m1 then Clone + FineTuneLoRA on m2, with the
// epoch losses of both fits recorded; it returns the two fitResults joined.
func trainAndTune(m1, m2 []*plan.Plan, cfg Config) []float64 {
	var losses epochLosses
	base := NewModel(cfg)
	base.Enc = featurize.FitEncoder(m1, cfg.Alpha)
	base.Hooks = &losses
	base.fit(encodeAll(base, m1, (*featurize.Encoder).Encode), cfg.LR, cfg.Epochs)
	out := fitResult(base, losses, m1[:8])

	losses = nil
	tuned := base.Clone()
	tuned.Hooks = &losses
	tuned.FineTuneLoRA(m2, 2e-3, 2)
	return append(out, fitResult(tuned, losses, m2[:8])...)
}

// poisonPools leaves NaN-filled memory where the next fits will borrow
// theirs: tapes whose arenas hold poisoned chunks in the tape pool, and
// poisoned chunks of every size class a small model's tapes, pass scratch,
// moments and prefixes draw on in the chunk pools.
func poisonPools(tapes, chunksPerClass int) {
	nan := math.Float64frombits(0x7ff8dead0badf00d)
	fill := func(a *nn.Arena, perClass int) {
		for c := 10; c <= 15; c++ {
			for i := 0; i < perClass; i++ {
				m := a.UninitMatrix(1, 1<<c)
				for j := range m.Data {
					m.Data[j] = nan
				}
			}
		}
	}
	held := make([]*nn.Tape, tapes)
	for i := range held {
		held[i] = nn.GetTape()
		fill(held[i].Arena(), 4)
	}
	for _, tp := range held {
		nn.PutTape(tp)
	}
	var a nn.Arena
	fill(&a, chunksPerClass)
	a.Release()
}

// TestFitOnPoisonedChunks extends TestForwardOnPoisonedArena from one tape to
// a whole fit. A fit's tapes and scratch are borrowed, so they arrive holding
// whatever the last borrower left: with every pooled float a NaN, a Train and
// a FineTuneLoRA still produce the weights, the epoch losses and the
// predictions of the same fits on memory the allocator just zeroed.
func TestFitOnPoisonedChunks(t *testing.T) {
	m1 := workloadPlans(t, schema.BenchmarkDB("airline"), 48, executor.M1())
	m2 := workloadPlans(t, schema.BenchmarkDB("airline"), 32, executor.M2())
	cfg := smallConfig()
	cfg.Epochs = 2
	cfg.Workers = 2

	// Two collections empty every sync.Pool, victim caches included: the
	// reference fits run on fresh memory.
	runtime.GC()
	runtime.GC()
	want := trainAndTune(m1, m2, cfg)

	poisonPools(4, 24)
	if !raceEnabled { // under the race detector sync.Pool drops items at random
		tp := nn.GetTape()
		got := tp.Arena().UninitMatrix(1, 1).Data[0]
		nn.PutTape(tp)
		var a nn.Arena
		chunk := a.UninitMatrix(1, 1<<12).Data[0]
		a.Release()
		if !math.IsNaN(got) || !math.IsNaN(chunk) {
			t.Fatalf("the pools hand out %v (tape) and %v (chunk), not the poison just put there", got, chunk)
		}
	}
	sameBits(t, "fit on poisoned pools", trainAndTune(m1, m2, cfg), want)
}

// TestFitReturnsItsMemory: the second of two identical fits allocates what it
// keeps or owns alone — the model's values and gradients, the encoded plans —
// and borrows the rest, what dies with the fit, from where the first one
// returned it: a tape and a block scratch per worker, Adam's two moments per
// trainable parameter and, under LoRA, each plan's cached prefix. At the
// default configuration (the benchmark's train_adapt shapes) building those
// afresh cost 5.5 MB in Train and 3.7 MB in the fine-tune.
func TestFitReturnsItsMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	m1 := workloadPlans(t, schema.IMDB(), 16, executor.M1())
	m2 := workloadPlans(t, schema.IMDB(), 32, executor.M2())
	cfg := DefaultConfig()
	cfg.Epochs = 1
	cfg.Workers = 2
	// The budget is about what a fit asks the allocator for, not about what
	// sync.Pool does in between: a collection moves the pools' contents to
	// their victim caches (and a second drops them), and the one item a P
	// keeps in its private slot is out of reach of a borrower running on
	// another P. No collections and one P make the count exact.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	allocated := func(fit func()) uint64 {
		fit()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fit()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	floats := func(ps []*nn.Param, trainableOnly bool) (n uint64) {
		for _, p := range ps {
			if !trainableOnly || !p.Frozen {
				n += uint64(len(p.Value.Data))
			}
		}
		return n
	}

	var base *Model
	got := allocated(func() { base = Train(m1, cfg) })
	// Value and gradient per parameter; 256 KB for the encoder fit, 16
	// encoded plans, tape headers and the fan-out.
	budget := 2*8*floats(base.Params(), false) + 256<<10
	t.Logf("second Train: %d bytes allocated, budget %d", got, budget)
	if got > budget {
		t.Fatalf("the second Train allocated %d bytes, want at most %d: its tapes, scratch and moments should have been borrowed", got, budget)
	}

	var tuned *Model
	got = allocated(func() {
		tuned = base.Clone()
		tuned.FineTuneLoRA(m2, 2e-3, 2)
	})
	// The clone's values and gradients, frozen base and adapters alike;
	// 256 KB for 32 encoded plans, their prefix headers, tape headers and
	// the fan-out.
	budget = 2*8*floats(tuned.Params(), false) + 256<<10
	t.Logf("second Clone + FineTuneLoRA: %d bytes allocated, budget %d", got, budget)
	if got > budget {
		t.Fatalf("the second Clone + FineTuneLoRA allocated %d bytes, want at most %d: its tapes, scratch, moments and prefixes should have been borrowed", got, budget)
	}
}

// TestConcurrentFitsShareTheChunkPool: adapt.Pool runs several fine-tunes at
// once, all borrowing from and returning to the same pools. Eight of them on
// different data, started together, each come out bit for bit as the same
// fine-tune run alone — no slab or tape is ever lent to two of them. Run
// under -race in CI (internal/core is in RACE_PKGS).
func TestConcurrentFitsShareTheChunkPool(t *testing.T) {
	m1 := workloadPlans(t, schema.BenchmarkDB("walmart"), 40, executor.M1())
	m2 := workloadPlans(t, schema.BenchmarkDB("walmart"), 8*12, executor.M2())
	cfg := smallConfig()
	cfg.Epochs = 2
	cfg.Workers = 2
	base := Train(m1, cfg)
	tune := func(i int) []float64 {
		var losses epochLosses
		m := base.Clone()
		m.Hooks = &losses
		m.FineTuneLoRA(m2[i*12:(i+1)*12], 2e-3, 3)
		return fitResult(m, losses, m2[:4])
	}
	const fits = 8
	alone := make([][]float64, fits)
	for i := range alone {
		alone[i] = tune(i)
	}
	for round := 0; round < 3; round++ {
		together := make([][]float64, fits)
		var wg sync.WaitGroup
		for i := 0; i < fits; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				together[i] = tune(i)
			}()
		}
		wg.Wait()
		for i := range together {
			sameBits(t, "concurrent fine-tune", together[i], alone[i])
		}
	}
}
