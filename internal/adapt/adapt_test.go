package adapt

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
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

func (h *fakeHost) Admit(*core.Model) error { return nil }

func (h *fakeHost) Publish(m *core.Model, v int) {
	h.mu.Lock()
	h.m, h.v = m, v
	h.mu.Unlock()
}

// flat is p as the request edge hands it to Observe.
func flat(p *plan.Plan) *plan.FlatPlan { return new(plan.FlatPlan).FromTree(p) }

// fillStore feeds plans (with their executor labels) through the store.
func fillStore(s *feedback.Store, m *core.Model, plans []*plan.Plan) {
	for _, p := range plans {
		s.Add(feedback.Sample{Plan: flat(p), ActualMS: p.Root.ActualMS, PredictedMS: m.Predict(p)})
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
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Current != 1 {
		t.Fatalf("current = %d, want 1", man.Current)
	}
	got, err := loadVersion(dir, 1)
	if err != nil {
		t.Fatal(err)
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
	if _, err := loadVersion(dir, 1); err == nil {
		t.Fatal("loadVersion accepted a corrupted artifact")
	}
	// The one install path refuses it too, and leaves the host alone.
	seed := core.NewModel(smallConfig())
	host := &fakeHost{m: seed}
	c := New(host, feedback.NewStore(16, 1), nil, Config{ModelDir: dir})
	if _, err := c.Load(1); err == nil {
		t.Fatal("Load installed a corrupted artifact")
	}
	if m, v := host.Served(); m != seed || v != 0 {
		t.Fatalf("failed load changed the host: v%d", v)
	}
}

// TestLoadRefusesCorruptManifestConfig: the per-version checksum covers the
// model file, not the manifest entry's config, so Load must refuse a config
// no model can be built from — with an error, leaving the host alone —
// rather than panic (or, for a width just short of the allocation limit,
// exhaust memory).
func TestLoadRefusesCorruptManifestConfig(t *testing.T) {
	plans := workloadPlans(t, schema.BenchmarkDB("airline"), 30, executor.M1())
	cfg := smallConfig()
	cfg.Epochs = 1
	trained := core.Train(plans, cfg)
	for _, tc := range []struct {
		name string
		lora bool
		edit func(*core.Config)
	}{
		{"negative DK", false, func(c *core.Config) { c.DK = -5 }},
		{"one LoRA rank for three layers", true, func(c *core.Config) { c.LoRARanks = []int{1} }},
		{"DK past any allocation", false, func(c *core.Config) { c.DK = 1 << 60 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m := trained.Clone()
			if tc.lora {
				m.EnableLoRA()
			}
			if _, err := SaveVersion(dir, m, ""); err != nil {
				t.Fatal(err)
			}
			man, err := ReadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(&man.Versions[0].Config)
			if err := writeManifest(dir, man); err != nil {
				t.Fatal(err)
			}
			seed := core.NewModel(smallConfig())
			host := &fakeHost{m: seed}
			c := New(host, feedback.NewStore(16, 1), nil, Config{ModelDir: dir})
			if _, err := c.Load(1); err == nil {
				t.Fatal("Load installed an artifact whose config builds no model")
			}
			if m, v := host.Served(); m != seed || v != 0 {
				t.Fatalf("failed load changed the host: v%d", v)
			}
		})
	}
}

// currentVersion reads the on-disk pointer a restart resumes.
func currentVersion(t *testing.T, dir string) int {
	t.Helper()
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	return man.Current
}

// TestRollbackRestoresPreviousVersion: Rollback is Load(previous), and the
// on-disk pointer follows whatever Load put into service — so a restart
// resumes the version that was being served and the next Rollback steps from
// it, not from the last promotion.
func TestRollbackRestoresPreviousVersion(t *testing.T) {
	dir := t.TempDir()
	db := schema.BenchmarkDB("airline")
	plans := workloadPlans(t, db, 60, executor.M1())
	m1 := core.Train(plans[:40], smallConfig())
	m2 := m1.Clone()
	m2.EnableLoRA()
	m2.FineTuneLoRA(plans[:40], 2e-3, 2)
	seed := core.NewModel(smallConfig())

	if _, err := SaveVersion(dir, m1, "v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveVersion(dir, m2, "v2"); err != nil {
		t.Fatal(err)
	}
	probe := plans[40]
	host := &fakeHost{m: seed}
	c := New(host, feedback.NewStore(16, 1), nil, Config{ModelDir: dir, DriftThreshold: 2, DriftWindow: 8})
	if v, err := c.Resume(); err != nil || v != 2 || host.v != 2 || host.m.Predict(probe) != m2.Predict(probe) {
		t.Fatalf("Resume = v%d, %v; host at v%d", v, err, host.v)
	}
	for i := 0; i < 4; i++ {
		c.Observe(flat(probe), 10, 1)
	}

	v, err := c.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || host.v != 1 || currentVersion(t, dir) != 1 {
		t.Fatalf("rolled back to %d (host v%d, manifest v%d), want 1", v, host.v, currentVersion(t, dir))
	}
	if host.m.Predict(probe) != m1.Predict(probe) {
		t.Fatal("rollback did not restore v1's predictions")
	}
	if st := c.StatusNow(); st.DriftN != 0 || st.ModelVersion != 1 {
		t.Fatalf("after a rollback: drift_n %d (want 0: the window measured v2), model_version %d", st.DriftN, st.ModelVersion)
	}
	// Refuses to roll back past the oldest version.
	if _, err := c.Rollback(); err == nil {
		t.Fatal("rollback past the first version succeeded")
	}
	// The manifest still knows v2; re-loading it works, and the pointer
	// follows it there and back.
	if prev, err := c.Load(2); err != nil || prev != 1 || host.v != 2 || currentVersion(t, dir) != 2 {
		t.Fatalf("Load(2) = previous v%d, %v; host v%d, manifest v%d", prev, err, host.v, currentVersion(t, dir))
	}
	if _, err := c.Load(1); err != nil {
		t.Fatal(err)
	}
	// A restart over the same directory resumes v1 — what was being served,
	// not the newest artifact — and from v1 there is nothing to roll back to.
	host2 := &fakeHost{m: seed}
	c2 := New(host2, feedback.NewStore(16, 1), nil, Config{ModelDir: dir})
	if v, err := c2.Resume(); err != nil || v != 1 || host2.v != 1 || host2.m.Predict(probe) != m1.Predict(probe) {
		t.Fatalf("restart after Load(1) resumed v%d (host v%d), %v; want v1", v, host2.v, err)
	}
	if v, err := c2.Rollback(); err == nil || !strings.Contains(err.Error(), "already at the oldest version") || host2.v != 1 {
		t.Fatalf("Rollback at v1 = v%d, %v (host v%d); want the oldest-version refusal", v, err, host2.v)
	}
	// Version 0 is the model the host served when the controller was built;
	// loading it moves the pointer too, so a restart serves the seed.
	if prev, err := c2.Load(0); err != nil || prev != 1 || host2.m != seed || host2.v != 0 || currentVersion(t, dir) != 0 {
		t.Fatalf("Load(0) = previous v%d, %v; host v%d, manifest v%d", prev, err, host2.v, currentVersion(t, dir))
	}
	host3 := &fakeHost{m: seed}
	if v, err := New(host3, feedback.NewStore(16, 1), nil, Config{ModelDir: dir}).Resume(); err != nil || v != 0 || host3.m != seed {
		t.Fatalf("restart after Load(0) resumed v%d, %v; want the seed left in place", v, err)
	}
	// A version that was never saved is refused with everything left alone.
	if _, err := c2.Load(9); err == nil || host2.v != 0 || currentVersion(t, dir) != 0 {
		t.Fatalf("Load(9) = %v; host v%d, manifest v%d", err, host2.v, currentVersion(t, dir))
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
	restarted := &fakeHost{m: seed}
	v, err := New(restarted, store, nil, Config{ModelDir: dir}).Resume()
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || restarted.v != 1 {
		t.Fatalf("resumed version %d (host v%d), want 1", v, restarted.v)
	}
	reloaded := restarted.Model()
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

// TestObserveTracksDriftAndKicks: the drift trigger's policy is decided in
// Observe and its only effect is one dedup'd job on the pool.
func TestObserveTracksDriftAndKicks(t *testing.T) {
	newController := func() *Controller {
		return New(&fakeHost{m: core.NewModel(smallConfig())}, feedback.NewStore(64, 1), nil, Config{
			DriftThreshold: 2.0,
			DriftWindow:    8,
			MinSamples:     1 << 30, // never actually fine-tune
		})
	}
	p := flat(&plan.Plan{Database: "t", Root: &plan.Node{Type: plan.SeqScan, EstRows: 10, EstCost: 100}})
	// A pool nobody drains: what is enqueued stays countable.
	pool := &Pool{jobs: make(chan *Controller, 8)}
	c := newController()
	pool.Attach(c)
	// Served prediction 1ms, actual 10ms → q-error 10, way past threshold.
	for i := 0; i < 3; i++ {
		c.Observe(p, 10, 1)
	}
	if len(pool.jobs) != 0 {
		t.Fatal("enqueued before half a window of observations")
	}
	for i := 0; i < 5; i++ {
		c.Observe(p, 10, 1) // every one of these crosses again
	}
	if st := c.StatusNow(); st.DriftMedian < 9.9 {
		t.Fatalf("drift median %v, want ~10", st.DriftMedian)
	}
	if len(pool.jobs) != 1 {
		t.Fatalf("drift past threshold enqueued %d jobs, want exactly 1", len(pool.jobs))
	}
	if c.Enqueue() {
		t.Fatal("a second enqueue while queued was accepted")
	}
	// Once a worker has run the job the next crossing enqueues again.
	(<-pool.jobs).queued.Store(false)
	c.Observe(p, 10, 1)
	if len(pool.jobs) != 1 {
		t.Fatalf("crossing after the job ran enqueued %d jobs, want 1", len(pool.jobs))
	}

	// No pool: drift is still tracked, nothing is scheduled anywhere.
	solo := newController()
	for i := 0; i < 8; i++ {
		solo.Observe(p, 10, 1)
	}
	if solo.Enqueue() || solo.queued.Load() || solo.StatusNow().DriftMedian < 9.9 {
		t.Fatal("a controller with no pool scheduled a job (or lost its drift window)")
	}
}

// TestObserveFreshSamplesKick: with drift detection off, a controller on a
// pool enqueues once its store holds MinSamples, and again only after a
// quarter of MinSamples fresh samples — the one trigger policy of every
// domain.
func TestObserveFreshSamplesKick(t *testing.T) {
	c := New(&fakeHost{m: core.NewModel(smallConfig())}, feedback.NewStore(64, 1), nil, Config{MinSamples: 8})
	pool := &Pool{jobs: make(chan *Controller, 8)} // nobody drains it
	pool.Attach(c)
	observe := func(i int) {
		c.Observe(flat(&plan.Plan{Database: "t", Root: &plan.Node{Type: plan.SeqScan, EstRows: float64(10 + i), EstCost: 100}}), 5, 5)
	}
	for i := 0; i < 7; i++ {
		observe(i)
	}
	if len(pool.jobs) != 0 {
		t.Fatal("enqueued below MinSamples")
	}
	observe(7)
	if len(pool.jobs) != 1 {
		t.Fatalf("MinSamples reached: %d jobs, want 1", len(pool.jobs))
	}
	(<-pool.jobs).queued.Store(false) // as a worker does once the attempt ran
	observe(8)
	if len(pool.jobs) != 0 {
		t.Fatal("enqueued again after one fresh sample; want MinSamples/4 = 2")
	}
	observe(9)
	if len(pool.jobs) != 1 {
		t.Fatalf("two fresh samples: %d jobs, want 1", len(pool.jobs))
	}
}

// TestStartStopDrainsCleanly is the pool's: a 1 ms timer and a stream of
// drift crossings drive skip-only attempts through it; Stop waits for its
// goroutines and is idempotent.
func TestStartStopDrainsCleanly(t *testing.T) {
	host := &fakeHost{m: core.NewModel(smallConfig())}
	store := feedback.NewStore(16, 1)
	c := New(host, store, nil, Config{
		Interval:       time.Millisecond,
		DriftThreshold: 2.0,
		DriftWindow:    8,
		MinSamples:     1 << 30, // every attempt skips
	})
	pool := NewPool(2)
	pool.Attach(c)
	p := flat(&plan.Plan{Database: "t", Root: &plan.Node{Type: plan.SeqScan, EstRows: 10, EstCost: 100}})
	for i := 0; i < 50; i++ {
		c.Observe(p, 5, 1)
	}
	time.Sleep(10 * time.Millisecond)
	pool.Stop()
	pool.Stop() // idempotent
	if st := c.StatusNow(); st.Promotions != 0 || st.Running {
		t.Fatalf("skip-only pool promoted or is still running something: %+v", st)
	}
	// A stopped pool runs nothing more; triggers on it stay harmless.
	c.Observe(p, 5, 1)
	c.Enqueue()
}
