package tenant

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"dace/internal/adapt"
	"dace/internal/core"
	"dace/internal/dataset"
	"dace/internal/executor"
	"dace/internal/nn"
	"dace/internal/plan"
	"dace/internal/schema"
	"dace/internal/servecache"
	"dace/internal/wire"
)

// Resolve is Get plus the tenant's hot-path read, as serve makes it. ok is
// false for unknown tenants.
func (r *Registry) Resolve(id string) (m *core.Model, salt servecache.Key, ok bool) {
	t, ok := r.Get(id)
	if !ok {
		return nil, servecache.Key{}, false
	}
	s := t.Resolve()
	return s.View, s.Salt, true
}

func smallConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.DK, cfg.DV = 32, 32
	cfg.Hidden = []int{32, 16, 1}
	cfg.LoRARanks = []int{8, 4, 2}
	cfg.Epochs = 12
	return cfg
}

func workloadPlans(t *testing.T, db *schema.Database, n int, m executor.Machine) []*plan.Plan {
	t.Helper()
	samples, err := dataset.ComplexWorkload(db, n, m)
	if err != nil {
		t.Fatal(err)
	}
	return dataset.Plans(samples)
}

func trainedBase(t *testing.T, plans []*plan.Plan) *core.Model {
	t.Helper()
	return core.Train(plans, smallConfig())
}

// enabled is New with the tenants part built over base.
func enabled(t *testing.T, base *core.Model, cfg Config) *Registry {
	t.Helper()
	r := New(base, nil, nil, cfg)
	if _, err := r.EnableTenants(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestValidateID(t *testing.T) {
	good := []string{"a", "airline", "tenant-1", "db_7", "A.B-c_9", strings.Repeat("x", 128)}
	for _, id := range good {
		if err := wire.ValidateTenantID(id); err != nil {
			t.Errorf("ValidateTenantID(%q) = %v, want nil", id, err)
		}
	}
	bad := []string{"", ".", "..", "a/b", "../etc", "a\\b", "a b", "a&b=c", "x\r\ny", "héllo", "a\x00b",
		strings.Repeat("x", 129), "tenant/../../escape"}
	for _, id := range bad {
		if err := wire.ValidateTenantID(id); err == nil {
			t.Errorf("ValidateTenantID(%q) = nil, want error", id)
		}
	}
}

// TestResolveServesAdapterViewBitwise: a tenant's resolved view must answer
// exactly like a dedicated single-tenant model holding the same weights.
func TestResolveServesAdapterViewBitwise(t *testing.T) {
	db := schema.BenchmarkDB("airline")
	m1Plans := workloadPlans(t, db, 120, executor.M1())
	m2Plans := workloadPlans(t, db, 120, executor.M2())
	base := trainedBase(t, m1Plans[:100])
	r := enabled(t, base, Config{})

	// Dedicated model: a full clone fine-tuned on this tenant's workload.
	dedicated := base.Clone()
	dedicated.FineTuneLoRA(m2Plans[:100], 2e-3, 4)

	tn, created, err := r.Register("m2")
	if err != nil || !created {
		t.Fatalf("Register: created=%v err=%v", created, err)
	}
	tn.publish(base.WithAdapters(dedicated.Adapters()), dedicated.Adapters(), 1)

	view, salt, ok := r.Resolve("m2")
	if !ok {
		t.Fatal("registered tenant did not resolve")
	}
	if salt == (State{}.Salt) {
		t.Fatal("tenant salt must not be the zero (global) cache domain")
	}
	for i, p := range m2Plans[100:] {
		if got, want := view.Predict(p), dedicated.Predict(p); got != want {
			t.Fatalf("tenant view diverges from dedicated model on plan %d: %v vs %v", i, got, want)
		}
	}
	if view.Enc != base.Enc {
		t.Fatal("tenant view must share the base encoder")
	}

	if _, _, ok := r.Resolve("nope"); ok {
		t.Fatal("unknown tenant resolved")
	}
}

// TestHotSwapGenerationGuard: swapping tenant A's adapters bumps only A's
// generation and salt; tenant B's snapshot (and the base) are untouched,
// and readers holding A's old state keep a consistent view.
func TestHotSwapGenerationGuard(t *testing.T) {
	db := schema.BenchmarkDB("airline")
	plans := workloadPlans(t, db, 80, executor.M1())
	cfg := smallConfig()
	base := trainedBase(t, plans[:60])
	r := enabled(t, base, Config{})

	ta, _, _ := r.Register("a")
	tb, _, _ := r.Register("b")
	if ta.State().Salt == tb.State().Salt {
		t.Fatal("distinct tenants share a cache salt")
	}

	bState := tb.State()
	aOld := ta.State()
	oldPred := aOld.View.Predict(plans[60])

	asA := core.NewAdapterSet(cfg, 7)
	for _, l := range asA.Layers {
		for i := range l.Up.Value.Data {
			l.Up.Value.Data[i] = 0.01
		}
	}
	ta.publish(base.WithAdapters(asA), asA, 1)

	aNew := ta.State()
	if aNew.Gen != aOld.Gen+1 {
		t.Fatalf("swap did not bump generation: %d → %d", aOld.Gen, aNew.Gen)
	}
	if aNew.Salt == aOld.Salt {
		t.Fatal("swap did not change the cache salt")
	}
	if got := tb.State(); got != bState {
		t.Fatal("swapping tenant A republished tenant B's state")
	}
	// The old snapshot still predicts exactly what it did pre-swap.
	if got := aOld.View.Predict(plans[60]); got != oldPred {
		t.Fatal("hot-swap perturbed an in-flight reader's old view")
	}
	if aNew.View.Predict(plans[60]) == oldPred {
		t.Fatal("new adapters did not change the prediction (swap not visible)")
	}
}

// TestConcurrentResolveDuringHotSwap hammers Resolve+Predict from many
// goroutines while adapters hot-swap — race-clean under -race, and every
// observed prediction matches one of the published adapter sets.
func TestConcurrentResolveDuringHotSwap(t *testing.T) {
	db := schema.BenchmarkDB("airline")
	plans := workloadPlans(t, db, 70, executor.M1())
	cfg := smallConfig()
	base := trainedBase(t, plans[:60])
	r := enabled(t, base, Config{})

	tn, _, _ := r.Register("hot")
	probe := plans[60]

	sets := make([]*core.AdapterSet, 4)
	valid := map[float64]bool{base.Predict(probe): true}
	for i := range sets {
		sets[i] = core.NewAdapterSet(cfg, int64(i))
		for _, l := range sets[i].Layers {
			for j := range l.Up.Value.Data {
				l.Up.Value.Data[j] = 0.003 * float64(i+1)
			}
		}
		valid[base.WithAdapters(sets[i]).Predict(probe)] = true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				view, _, ok := r.Resolve("hot")
				if !ok {
					t.Error("tenant vanished mid-run")
					return
				}
				if got := view.Predict(probe); !valid[got] {
					t.Errorf("prediction %v matches no published adapter set", got)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		as := sets[i%len(sets)]
		tn.publish(base.WithAdapters(as), as, i+1)
	}
	close(stop)
	wg.Wait()
}

// TestSixtyFourTenantsShareOneEncoder is the headline acceptance test: 64
// tenants from one process, per-tenant resident growth ≈ one adapter set,
// asserted far below one full model per tenant.
func TestSixtyFourTenantsShareOneEncoder(t *testing.T) {
	// Paper-size model (DefaultConfig); untrained weights suffice for a
	// memory-shape assertion. StoreCap is small so the replay buffer's
	// fixed preallocation doesn't drown the adapter-vs-model comparison.
	cfg := core.DefaultConfig()
	base := core.NewModel(cfg)
	r := enabled(t, base, Config{StoreCap: 64})

	// Resident bytes per parameter = value + eagerly allocated gradient.
	var adapterParams int
	for _, l := range core.NewAdapterSet(cfg, 0).Layers {
		adapterParams += nn.NumParams([]*nn.Param{l.Down, l.Up})
	}
	adapterBytes := float64(adapterParams) * 16
	modelBytes := float64(nn.NumParams(base.Params())) * 16

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	const nTenants = 64
	for i := 0; i < nTenants; i++ {
		id := "tenant-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i/26))
		tn, _, err := r.Register(id)
		if err != nil {
			t.Fatal(err)
		}
		as := core.NewAdapterSet(cfg, int64(i))
		tn.publish(base.WithAdapters(as), as, 1)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	perTenant := float64(after.HeapAlloc-before.HeapAlloc) / nTenants
	t.Logf("per-tenant %.0fB, adapter %.0fB, full model %.0fB", perTenant, adapterBytes, modelBytes)
	// Adapter params dominate; allow slack for the view struct, the
	// controller, and the (small) replay store — but a full model copy per
	// tenant (what Clone-per-tenant would cost) must be far out of reach.
	if perTenant > modelBytes/2 {
		t.Fatalf("per-tenant growth %.0fB ≥ half a model (%.0fB); encoder not shared", perTenant, modelBytes)
	}
	if perTenant > adapterBytes+64<<10 {
		t.Fatalf("per-tenant growth %.0fB ≫ adapter size %.0fB; tenants carry more than their adapters", perTenant, adapterBytes)
	}

	if r.Len() != nTenants {
		t.Fatalf("registry has %d tenants, want %d", r.Len(), nTenants)
	}
	// Every tenant resolves and predicts.
	for _, info := range r.List() {
		if _, _, ok := r.Resolve(info.ID); !ok {
			t.Fatalf("tenant %s did not resolve", info.ID)
		}
	}
}

// TestFeedbackDrivesGatedPromotion: one tenant's stream goes in through its
// Observe, and its RunOnce — the controller's, no pool attached, so nothing
// else can be running — fine-tunes a candidate whose promotion (or
// rejection) is q-error-gated, versioned into the tenant's dir, and
// loadable again.
func TestFeedbackDrivesGatedPromotion(t *testing.T) {
	db := schema.BenchmarkDB("airline")
	m1Plans := workloadPlans(t, db, 120, executor.M1())
	m2Plans := workloadPlans(t, db, 160, executor.M2())
	base := trainedBase(t, m1Plans[:100])
	dir := t.TempDir()
	r := enabled(t, base, Config{Dir: dir, Adapt: adapt.Config{MinSamples: 64, Gate: 0.01, Epochs: 6}})

	tn, _, err := r.Register("m2")
	if err != nil {
		t.Fatal(err)
	}
	view := tn.Resolve().View
	for _, p := range m2Plans[:120] {
		tn.Observe(new(plan.FlatPlan).FromTree(p), p.Root.ActualMS, view.Predict(p))
	}
	if info := tn.Info(); info.Feedback != 120 || info.Backlog == 0 {
		t.Fatalf("after 120 observations: %+v", info)
	}

	out, err := tn.RunOnce()
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	st := tn.State()
	if out.Promoted {
		if st.Version != out.Version || st.Adapters == nil {
			t.Fatalf("promotion not published: state v%d gen %d", st.Version, st.Gen)
		}
		// The artifact round-trips through the one load path.
		if _, err := r.Load("m2", out.Version); err != nil {
			t.Fatalf("Load of promoted version: %v", err)
		}
	} else if st.Adapters != nil || st.Version != 0 {
		t.Fatalf("rejected candidate reached the snapshot: v%d", st.Version)
	}
	if status := tn.StatusNow(); status.Runs != 1 || status.Promotions+status.Rejections != 1 {
		t.Fatalf("one attempt, one verdict: %+v", status)
	}
	// The served version has one home: the controller reports the snapshot's.
	if got, want := tn.StatusNow().ModelVersion, tn.State().Version; got != want {
		t.Fatalf("adapt status says v%d, the served snapshot v%d", got, want)
	}
}

// TestLoadDirRoundTrip: artifacts are rediscovered by a fresh registry over
// the same dir, serving the version that was being served — the on-disk
// pointer follows Load, not just promotion — and a directory whose artifact
// the shared base cannot carry is skipped whole: no tenant, no panic.
func TestLoadDirRoundTrip(t *testing.T) {
	db := schema.BenchmarkDB("airline")
	m1Plans := workloadPlans(t, db, 100, executor.M1())
	m2Plans := workloadPlans(t, db, 100, executor.M2())
	base := trainedBase(t, m1Plans[:80])
	dir := t.TempDir()

	// Two fine-tuned candidates saved by hand as tenant "m2" v1 and v2 (the
	// pointer ends at v2, as after two promotions), then v1 loaded back.
	cand := base.Clone()
	cand.FineTuneLoRA(m2Plans[:80], 2e-3, 4)
	cand2 := cand.Clone()
	cand2.FineTuneLoRA(m2Plans[:80], 2e-3, 2)
	for _, m := range []*core.Model{cand, cand2} {
		if _, err := adapt.SaveVersion(dir+"/m2", m, "test"); err != nil {
			t.Fatal(err)
		}
	}
	// Artifacts no tenant of this base can serve: a model saved without
	// LoRA, and adapters shaped for another MLP head.
	otherHead := smallConfig()
	otherHead.Hidden = []int{16, 16, 1}
	misfit := core.NewModel(otherHead)
	misfit.Enc = base.Enc
	misfit.EnableLoRA()
	for id, m := range map[string]*core.Model{"plain": base.Clone(), "misfit": misfit} {
		if _, err := adapt.SaveVersion(dir+"/"+id, m, "test"); err != nil {
			t.Fatal(err)
		}
	}

	r1 := enabled(t, base, Config{Dir: dir})
	if _, err := r1.Load("m2", 2); err != nil {
		t.Fatal(err)
	}
	tn, err := r1.Load("m2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if st := tn.StatusNow(); st.ModelVersion != 1 || st.DriftN != 0 {
		t.Fatalf("after Load(1): %+v", st)
	}
	want := make([]float64, 0, 20)
	for _, p := range m2Plans[80:] {
		view, _, _ := r1.Resolve("m2")
		want = append(want, view.Predict(p))
	}
	var refusals []string
	for _, id := range []string{"plain", "misfit"} {
		_, err := r1.Load(id, 1)
		if err == nil {
			t.Fatalf("Load served tenant %s an artifact the base cannot carry", id)
		}
		if _, ok := r1.Get(id); ok {
			t.Fatalf("the failed load left tenant %s registered", id)
		}
		refusals = append(refusals, err.Error())
	}

	// A fresh registry over the same base + dir serves the same bits.
	r2 := New(base, nil, nil, Config{Dir: dir})
	n, err := r2.EnableTenants()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || r2.Len() != 1 {
		t.Fatalf("EnableTenants loaded %d tenants (%d registered), want only m2: %v", n, r2.Len(), refusals)
	}
	view, _, ok := r2.Resolve("m2")
	if !ok {
		t.Fatal("reloaded tenant did not resolve")
	}
	if got := r2.Versions()["m2"]; got != 1 {
		t.Fatalf("reloaded version %d, want 1: the version that was being served", got)
	}
	for i, p := range m2Plans[80:] {
		if got := view.Predict(p); got != want[i] {
			t.Fatalf("reloaded tenant diverges on plan %d", i)
		}
	}
	// From v1 there is nothing older: the rollback refuses and changes nothing.
	tn2, _ := r2.Get("m2")
	before := tn2.State()
	if v, err := tn2.Rollback(); err == nil || !strings.Contains(err.Error(), "already at the oldest version") {
		t.Fatalf("Rollback at v1 = v%d, %v; want the oldest-version refusal", v, err)
	}
	if tn2.State() != before {
		t.Fatal("a refused rollback republished the tenant's snapshot")
	}
}
