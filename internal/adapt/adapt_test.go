package adapt

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dace/internal/core"
	"dace/internal/dataset"
	"dace/internal/executor"
	"dace/internal/feedback"
	"dace/internal/metrics"
	"dace/internal/plan"
	"dace/internal/schema"
)

// smallConfig mirrors the core test config to keep fine-tunes fast.
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

func medianQError(m *core.Model, plans []*plan.Plan) float64 {
	var qs []float64
	for _, p := range plans {
		qs = append(qs, metrics.QError(m.Predict(p), p.Root.ActualMS))
	}
	return metrics.Summarize(qs).Median
}

// fakeHost is a minimal serve.Server stand-in.
type fakeHost struct {
	mu sync.Mutex
	m  *core.Model
	v  int
}

func (h *fakeHost) Served() (*core.Model, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.m, h.v
}

func (h *fakeHost) Model() *core.Model {
	m, _ := h.Served()
	return m
}

func (h *fakeHost) Publish(m *core.Model, v int) {
	h.mu.Lock()
	h.m, h.v = m, v
	h.mu.Unlock()
}

// fillStore feeds plans (with their executor labels) through the store.
func fillStore(s *feedback.Store, m *core.Model, plans []*plan.Plan) {
	for _, p := range plans {
		s.Add(feedback.Sample{Plan: p, ActualMS: p.Root.ActualMS, PredictedMS: m.Predict(p)})
	}
}

func TestArtifactSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := schema.BenchmarkDB("airline")
	plans := workloadPlans(t, db, 60, executor.M1())
	m := core.Train(plans[:40], smallConfig())
	m.EnableLoRA()

	v, err := SaveVersion(dir, m, "seed")
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("first version = %d, want 1", v)
	}
	got, cur, err := LoadCurrent(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cur != 1 {
		t.Fatalf("current = %d, want 1", cur)
	}
	if !got.LoRAEnabled() {
		t.Fatal("LoRA state lost through the artifact store")
	}
	for _, p := range plans[40:] {
		if a, b := m.Predict(p), got.Predict(p); a != b {
			t.Fatalf("artifact round trip changed a prediction: %v vs %v", a, b)
		}
	}
}

func TestArtifactChecksumCatchesCorruption(t *testing.T) {
	dir := t.TempDir()
	db := schema.BenchmarkDB("airline")
	plans := workloadPlans(t, db, 45, executor.M1())
	m := core.Train(plans, smallConfig())
	if _, err := SaveVersion(dir, m, ""); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "v1.dace")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadVersion(dir, 1); err == nil {
		t.Fatal("LoadVersion accepted a corrupted artifact")
	}
}

func TestRollbackRestoresPreviousVersion(t *testing.T) {
	dir := t.TempDir()
	db := schema.BenchmarkDB("airline")
	plans := workloadPlans(t, db, 60, executor.M1())
	m1 := core.Train(plans[:40], smallConfig())
	m2 := m1.Clone()
	m2.EnableLoRA()
	m2.FineTuneLoRA(plans[:40], 2e-3, 2)

	if _, err := SaveVersion(dir, m1, "v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveVersion(dir, m2, "v2"); err != nil {
		t.Fatal(err)
	}
	back, v, err := Rollback(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("rolled back to %d, want 1", v)
	}
	probe := plans[40]
	if back.Predict(probe) != m1.Predict(probe) {
		t.Fatal("rollback did not restore v1's predictions")
	}
	// Refuses to roll back past the oldest version.
	if _, _, err := Rollback(dir); err == nil {
		t.Fatal("rollback past the first version succeeded")
	}
	// The manifest still knows v2; re-loading it works.
	if _, err := LoadVersion(dir, 2); err != nil {
		t.Fatalf("v2 unavailable after rollback: %v", err)
	}
}

func TestRunOnceRequiresMinSamples(t *testing.T) {
	host := &fakeHost{m: core.NewModel(smallConfig())}
	c := New(host, feedback.NewStore(16, 1), nil, Config{MinSamples: 10})
	if _, err := c.RunOnce(); !errors.Is(err, ErrTooFewSamples) {
		t.Fatalf("RunOnce on an empty store: %v, want ErrTooFewSamples", err)
	}
}

// TestGateRejectsNonImprovingCandidate sets an unreachable gate so the
// fine-tuned candidate must be rejected: the serving model, the artifact
// directory, and the rejection counters all have to show it.
func TestGateRejectsNonImprovingCandidate(t *testing.T) {
	db := schema.BenchmarkDB("airline")
	plans := workloadPlans(t, db, 120, executor.M1())
	seed := core.Train(plans[:60], smallConfig())
	host := &fakeHost{m: seed}
	store := feedback.NewStore(256, 1)
	fillStore(store, seed, plans[60:])

	dir := t.TempDir()
	c := New(host, store, nil, Config{
		MinSamples: 20,
		Gate:       0.99, // nothing improves 99%
		LR:         2e-3,
		Epochs:     2,
		ModelDir:   dir,
		Seed:       7,
	})
	out, err := c.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if out.Promoted {
		t.Fatalf("candidate passed a 99%% gate: %+v", out)
	}
	if host.Model() != seed {
		t.Fatal("rejected candidate reached the serving model")
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); !os.IsNotExist(err) {
		t.Fatal("rejected candidate was persisted")
	}
	st := c.StatusNow()
	if st.Rejections != 1 || st.Promotions != 0 || st.Runs != 1 {
		t.Fatalf("status after rejection: %+v", st)
	}
	if st.Last == nil || st.Last.Promoted {
		t.Fatalf("last outcome not recorded as rejection: %+v", st.Last)
	}
}

// TestControllerAdaptsAcrossMore is the adaptation loop end to end at the
// controller level: a model trained on machine M1 serves feedback from M2
// (the across-more drift of the paper), RunOnce fine-tunes a clone and the
// gate promotes it, the swap lands in the host, and the promoted artifact
// reloads into an identical model.
func TestControllerAdaptsAcrossMore(t *testing.T) {
	db := schema.BenchmarkDB("airline")
	m1Plans := workloadPlans(t, db, 150, executor.M1())
	m2Plans := workloadPlans(t, db, 220, executor.M2())
	seed := core.Train(m1Plans[:120], smallConfig())

	host := &fakeHost{m: seed}
	store := feedback.NewStore(256, 1)
	fillStore(store, seed, m2Plans[:180])

	dir := t.TempDir()
	c := New(host, store, nil, Config{
		MinSamples: 50,
		Gate:       0.02,
		LR:         2e-3,
		Epochs:     16,
		ModelDir:   dir,
		Seed:       7,
	})

	beforeMed := medianQError(seed, m2Plans[180:])
	out, err := c.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Promoted {
		t.Fatalf("gate rejected the adaptation: %+v", out)
	}
	if out.Version != 1 {
		t.Fatalf("promotion not persisted as v1: %+v", out)
	}
	served := host.Model()
	if served == seed {
		t.Fatal("promotion did not swap the serving model")
	}
	afterMed := medianQError(served, m2Plans[180:])
	if afterMed >= beforeMed {
		t.Fatalf("promoted model is not better on drifted workload: %v → %v", beforeMed, afterMed)
	}

	// A restart serves the promoted model, bit for bit.
	reloaded, v, err := LoadCurrent(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("LoadCurrent version %d, want 1", v)
	}
	for _, p := range m2Plans[180:190] {
		if a, b := served.Predict(p), reloaded.Predict(p); a != b {
			t.Fatalf("reloaded artifact diverges from promoted model: %v vs %v", a, b)
		}
	}
	st := c.StatusNow()
	if st.Promotions != 1 || st.ModelVersion != 1 {
		t.Fatalf("status after promotion: %+v", st)
	}
}

func TestObserveTracksDriftAndKicks(t *testing.T) {
	host := &fakeHost{m: core.NewModel(smallConfig())}
	store := feedback.NewStore(64, 1)
	c := New(host, store, nil, Config{
		DriftThreshold: 2.0,
		DriftWindow:    8,
		MinSamples:     1 << 30, // never actually fine-tune
	})
	p := &plan.Plan{Database: "t", Root: &plan.Node{Type: plan.SeqScan, EstRows: 10, EstCost: 100}}
	// Served prediction 1ms, actual 10ms → q-error 10, way past threshold.
	for i := 0; i < 8; i++ {
		c.Observe(p, 10, 1)
	}
	st := c.StatusNow()
	if st.DriftMedian < 9.9 {
		t.Fatalf("drift median %v, want ~10", st.DriftMedian)
	}
	select {
	case <-c.kick:
	default:
		t.Fatal("drift past threshold did not kick the controller")
	}
}

func TestStartStopDrainsCleanly(t *testing.T) {
	host := &fakeHost{m: core.NewModel(smallConfig())}
	store := feedback.NewStore(16, 1)
	c := New(host, store, nil, Config{
		Interval:   time.Millisecond,
		MinSamples: 1 << 30, // every attempt skips
	})
	c.Start()
	c.Start() // idempotent
	p := &plan.Plan{Database: "t", Root: &plan.Node{Type: plan.SeqScan, EstRows: 10, EstCost: 100}}
	for i := 0; i < 50; i++ {
		c.Observe(p, 5, 1)
	}
	time.Sleep(10 * time.Millisecond)
	c.Stop()
	c.Stop() // idempotent
	if st := c.StatusNow(); st.Promotions != 0 {
		t.Fatalf("skip-only loop promoted something: %+v", st)
	}
}
