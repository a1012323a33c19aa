package core

import (
	"sync"
	"testing"

	"dace/internal/executor"
	"dace/internal/nn"
	"dace/internal/plan"
	"dace/internal/schema"
)

// Params returns the adapter parameters in layer order (down, up per
// layer).
func (as *AdapterSet) Params() []*nn.Param {
	ps := make([]*nn.Param, 0, 2*len(as.Layers))
	for _, l := range as.Layers {
		ps = append(ps, l.Down, l.Up)
	}
	return ps
}

// TestAdapterViewBitwiseEqualToClone is the multi-tenant serving contract:
// attaching a fine-tuned candidate's AdapterSet to the shared base via
// WithAdapters must predict bitwise-identically to the fully cloned
// candidate, across every predict path, while sharing the encoder.
func TestAdapterViewBitwiseEqualToClone(t *testing.T) {
	db := schema.BenchmarkDB("airline")
	m1Plans := workloadPlans(t, db, 120, executor.M1())
	m2Plans := workloadPlans(t, db, 120, executor.M2())
	base := Train(m1Plans[:100], smallConfig())

	candidate := base.Clone()
	candidate.FineTuneLoRA(m2Plans, 2e-3, 4)

	view := base.WithAdapters(candidate.Adapters())
	if view.Enc != base.Enc || view.Att != base.Att || view.Gamma != base.Gamma {
		t.Fatal("adapter view must share the encoder, attention, and gamma with the base")
	}
	for i := range base.MLP {
		if view.MLP[i] != base.MLP[i] {
			t.Fatalf("adapter view must share MLP layer %d with the base", i)
		}
	}

	test := append(append([]*plan.Plan(nil), m1Plans[100:]...), m2Plans[100:]...)
	for i, p := range test {
		want := candidate.Predict(p)
		if got := view.Predict(p); got != want {
			t.Fatalf("Predict diverges on plan %d: view %v, clone %v", i, got, want)
		}
		wantSubs := candidate.AppendPredictSubPlans(nil, p)
		gotSubs := view.AppendPredictSubPlans(nil, p)
		if len(gotSubs) != len(wantSubs) {
			t.Fatalf("sub-plan count diverges on plan %d", i)
		}
		for j := range wantSubs {
			if gotSubs[j] != wantSubs[j] {
				t.Fatalf("sub-plan %d/%d diverges: view %v, clone %v", i, j, gotSubs[j], wantSubs[j])
			}
		}
	}
}

// TestFreshAdapterSetIsNoOp: a just-built adapter set (Up zero) attached to
// the base changes no prediction, mirroring EnableLoRA's no-op guarantee.
func TestFreshAdapterSetIsNoOp(t *testing.T) {
	db := schema.BenchmarkDB("airline")
	plans := workloadPlans(t, db, 100, executor.M1())
	cfg := smallConfig()
	base := Train(plans[:80], cfg)

	view := base.WithAdapters(NewAdapterSet(cfg, cfg.Seed))
	for i, p := range plans[80:] {
		if got, want := view.Predict(p), base.Predict(p); got != want {
			t.Fatalf("fresh adapter set perturbs prediction %d: %v → %v", i, want, got)
		}
	}
}

// TestFrozenBaseCloneTrainsAdaptersOnly is the shared-encoder training
// contract: Freeze() the base once, and clones of any adapter view
// fine-tune only their own adapter copies — the base's parameters and the
// sibling views' predictions stay bitwise untouched.
func TestFrozenBaseCloneTrainsAdaptersOnly(t *testing.T) {
	db := schema.BenchmarkDB("airline")
	m1Plans := workloadPlans(t, db, 120, executor.M1())
	m2Plans := workloadPlans(t, db, 120, executor.M2())
	cfg := smallConfig()
	base := Train(m1Plans[:100], cfg)
	base.Freeze()

	viewA := base.WithAdapters(NewAdapterSet(cfg, 1))
	viewB := base.WithAdapters(NewAdapterSet(cfg, 2))

	test := m1Plans[100:]
	var beforeBase, beforeB []float64
	for _, p := range test {
		beforeBase = append(beforeBase, base.Predict(p))
		beforeB = append(beforeB, viewB.Predict(p))
	}

	c := viewA.Clone()
	if c.TrainableParams() >= nn.NumParams(c.Params()) {
		t.Fatal("clone of a frozen-base view should train only adapters")
	}
	c.FineTuneLoRA(m2Plans, 2e-3, 4)

	for i, p := range test {
		if got := base.Predict(p); got != beforeBase[i] {
			t.Fatalf("fine-tuning a view clone changed the base (plan %d)", i)
		}
		if got := viewB.Predict(p); got != beforeB[i] {
			t.Fatalf("fine-tuning tenant A's clone changed tenant B's view (plan %d)", i)
		}
	}

	// Promoting the trained adapters onto the base reproduces the clone.
	promoted := base.WithAdapters(c.Adapters())
	for i, p := range test {
		if got, want := promoted.Predict(p), c.Predict(p); got != want {
			t.Fatalf("promoted adapters diverge from the trained clone (plan %d): %v vs %v", i, got, want)
		}
	}
}

// TestAdapterSetCompatibility: shape mismatches are rejected, and
// WithAdapters panics rather than serving garbage.
func TestAdapterSetCompatibility(t *testing.T) {
	db := schema.BenchmarkDB("airline")
	plans := workloadPlans(t, db, 60, executor.M1())
	cfg := smallConfig()
	base := Train(plans, cfg)

	good := NewAdapterSet(cfg, 1)
	if err := good.CompatibleWith(base); err != nil {
		t.Fatalf("matching adapter set rejected: %v", err)
	}

	other := cfg
	other.Hidden = []int{16, 8, 1}
	other.LoRARanks = []int{4, 4, 1}
	bad := NewAdapterSet(other, 1)
	if err := bad.CompatibleWith(base); err == nil {
		t.Fatal("mismatched adapter set accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WithAdapters must panic on incompatible adapter set")
		}
	}()
	base.WithAdapters(bad)
}

// TestAdapterSetMemoryFootprint: the per-tenant state is a small fraction
// of the full model — the whole point of the encoder/adapter split.
func TestAdapterSetMemoryFootprint(t *testing.T) {
	cfg := DefaultConfig()
	m := NewModel(cfg)
	as := NewAdapterSet(cfg, 1)
	adapterParams := nn.NumParams(as.Params())
	modelParams := nn.NumParams(m.Params())
	if adapterParams*2 >= modelParams {
		t.Fatalf("adapter set (%d params) is not small next to the model (%d params)", adapterParams, modelParams)
	}
}

// TestConcurrentPredictAcrossSharedViews: many views over one base predict
// concurrently with the base itself — race-clean (run under -race) and
// bitwise-stable.
func TestConcurrentPredictAcrossSharedViews(t *testing.T) {
	db := schema.BenchmarkDB("airline")
	plans := workloadPlans(t, db, 80, executor.M1())
	cfg := smallConfig()
	base := Train(plans[:60], cfg)
	base.Freeze()

	views := make([]*Model, 4)
	for i := range views {
		views[i] = base.WithAdapters(NewAdapterSet(cfg, int64(i)))
	}
	test := plans[60:]
	want := make([][]float64, len(views))
	for i, v := range views {
		for _, p := range test {
			want[i] = append(want[i], v.Predict(p))
		}
	}

	var wg sync.WaitGroup
	for i, v := range views {
		wg.Add(1)
		go func(i int, v *Model) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for j, p := range test {
					if got := v.Predict(p); got != want[i][j] {
						t.Errorf("view %d plan %d drifted under concurrency", i, j)
						return
					}
				}
			}
		}(i, v)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 5; round++ {
			for _, p := range test {
				base.Predict(p)
			}
		}
	}()
	wg.Wait()
}
