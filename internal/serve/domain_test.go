package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"dace/internal/adapt"
	"dace/internal/core"
	"dace/internal/dataset"
	"dace/internal/feedback"
	"dace/internal/nn"
	"dace/internal/tenant"
)

// The tests of what base and tenants share by being one kind of adaptation
// domain: a load and a fine-tune of one domain are serialized, one artifact
// rule answers every way a tenant's version is installed, and one pool
// bounds every domain's background fine-tunes.

// doReq runs one request against h, optionally as a tenant.
func doReq(h http.Handler, method, target, tenantID string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if tenantID != "" {
		req.Header.Set("X-DACE-Tenant", tenantID)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func getDoc(t *testing.T, h http.Handler, target string, doc any) {
	t.Helper()
	code, body := doReq(h, http.MethodGet, target, "", nil)
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", target, code, body)
	}
	if err := json.Unmarshal(body, doc); err != nil {
		t.Fatalf("GET %s: %v", target, err)
	}
}

// fineTuned is m with LoRA adapters trained a little on plans: a model whose
// bytes on the wire differ from m's, to save as an artifact version.
func fineTuned(m *core.Model, samples []dataset.Sample) *core.Model {
	c := m.Clone()
	c.FineTuneLoRA(dataset.Plans(samples), 2e-3, 2)
	return c
}

// gateHooks parks a fine-tune at the end of its first epoch until released.
type gateHooks struct {
	entered, release chan struct{}
	once             sync.Once
}

func newGateHooks() *gateHooks {
	return &gateHooks{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateHooks) EpochDone(int, nn.EpochStats) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
}

// TestLoadDuringFineTuneWins: a load that arrives while a fine-tune of the
// same domain is running must be what the domain serves afterwards. The
// attempt read its incumbent before the load; published after it, its
// candidate would silently undo the load (a gateway's /rollout/abort, say).
// Load waits the attempt out instead, so the order is candidate, then load.
func TestLoadDuringFineTuneWins(t *testing.T) {
	seed, m2Samples := driftFixture(t)
	v1 := fineTuned(seed, m2Samples[200:])
	probe := planBody(t, m2Samples[190].Plan)
	_, wantV1 := postPredict(t, New(v1).Handler(), probe)
	cfg := adapt.Config{MinSamples: 50, Gate: 0.02, Epochs: 16, Seed: 7}

	// race runs trigger, parks it inside the fine-tune, sends load, and lets
	// the fine-tune go once load has answered or has clearly been made to wait.
	race := func(t *testing.T, h http.Handler, gate *gateHooks, trigger, load string) {
		t.Helper()
		type answer struct {
			code int
			body []byte
		}
		triggered, loaded := make(chan answer, 1), make(chan answer, 1)
		go func() {
			code, body := doReq(h, http.MethodPost, trigger, "", nil)
			triggered <- answer{code, body}
		}()
		<-gate.entered
		go func() {
			code, body := doReq(h, http.MethodPost, load, "", nil)
			loaded <- answer{code, body}
		}()
		var l answer
		select {
		case l = <-loaded:
		case <-time.After(200 * time.Millisecond):
		}
		close(gate.release)
		tr := <-triggered
		if l.code == 0 {
			l = <-loaded
		}
		var out adapt.Outcome
		if err := json.Unmarshal(tr.body, &out); tr.code != http.StatusOK || err != nil || !out.Promoted || out.Version != 2 {
			t.Fatalf("the fine-tune must promote v2 for the race to mean anything: %d %s", tr.code, tr.body)
		}
		if l.code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", load, l.code, l.body)
		}
	}

	t.Run("base", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := adapt.SaveVersion(dir, v1, "v1"); err != nil {
			t.Fatal(err)
		}
		cfg := cfg
		cfg.ModelDir = dir
		reg := tenant.New(seed, feedback.NewStore(512, 1), nil, tenant.Config{Adapt: cfg})
		s := NewWithRegistry(reg, Config{CacheSize: 256})
		ctl := reg.Zero()
		gate := newGateHooks()
		ctl.Hooks = gate
		h := s.Handler()
		for _, smp := range m2Samples[:180] {
			ctl.Observe(flat(smp.Plan), smp.Plan.Root.ActualMS, seed.Predict(smp.Plan))
		}
		race(t, h, gate, "/adapt/trigger", "/model/load?version=1")

		var model ModelStatus
		var health Health
		var status adapt.Status
		getDoc(t, h, "/model", &model)
		getDoc(t, h, "/healthz", &health)
		getDoc(t, h, "/adapt/status", &status)
		if model.Version != 1 || health.ModelVersion != 1 || status.ModelVersion != 1 {
			t.Fatalf("after the load: /model says %d, /healthz %d, /adapt/status %d; want 1 everywhere",
				model.Version, health.ModelVersion, status.ModelVersion)
		}
		if status.DriftN != 0 {
			t.Fatalf("drift_n %d after a load, want 0", status.DriftN)
		}
		if _, got := postPredict(t, h, probe); string(got) != string(wantV1) {
			t.Fatal("/predict does not answer with v1's bytes after the load")
		}
		if man, err := adapt.ReadManifest(dir); err != nil || man.Current != 1 {
			t.Fatalf("manifest current %+v (%v), want 1: what is being served", man, err)
		}
	})

	t.Run("tenant", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := adapt.SaveVersion(filepath.Join(dir, "m2"), v1, "v1"); err != nil {
			t.Fatal(err)
		}
		reg := tenant.New(seed, nil, nil, tenant.Config{Dir: dir, Adapt: cfg})
		if _, err := reg.EnableTenants(); err != nil {
			t.Fatal(err)
		}
		s := NewWithRegistry(reg, Config{CacheSize: 256})
		h := s.Handler()
		tn, _, err := reg.Register("m2")
		if err != nil {
			t.Fatal(err)
		}
		gate := newGateHooks()
		tn.Hooks = gate
		for _, smp := range m2Samples[:180] {
			tn.Observe(flat(smp.Plan), smp.Plan.Root.ActualMS, seed.Predict(smp.Plan))
		}
		race(t, h, gate, "/tenants/m2/adapt/trigger", "/tenants/m2/adapter/load?version=1")

		var info tenant.Info
		var health Health
		var status adapt.Status
		getDoc(t, h, "/tenants/m2", &info)
		getDoc(t, h, "/healthz", &health)
		getDoc(t, h, "/tenants/m2/adapt/status", &status)
		if info.Version != 1 || health.TenantVersions["m2"] != 1 || status.ModelVersion != 1 {
			t.Fatalf("after the load: /tenants/m2 says %d, /healthz %d, adapt/status %d; want 1 everywhere",
				info.Version, health.TenantVersions["m2"], status.ModelVersion)
		}
		if code, got := doReq(h, http.MethodPost, "/predict", "m2", probe); code != http.StatusOK || string(got) != string(wantV1) {
			t.Fatalf("tenant /predict (%d) does not answer with v1's bytes after the load", code)
		}
	})
}

// TestTenantArtifactRule: a tenant serves adapters that fit the shared base
// and nothing else, whichever way the version arrives. An artifact saved
// from a model without LoRA and one whose adapters are shaped for another
// head get the same refusal from adapter/load and adapter/rollback — 422,
// the served snapshot untouched, no panic — and an id whose first load is
// refused is not registered.
func TestTenantArtifactRule(t *testing.T) {
	m, samples := trainedModel(t)
	good := fineTuned(m, samples[:40])
	otherHead := m.Cfg
	otherHead.Hidden = []int{16, 16, 1}
	misfit := core.NewModel(otherHead)
	misfit.Enc = m.Enc
	misfit.EnableLoRA()

	// Each tenant's dir: the bad artifact as v1, a good one as v2.
	dir := t.TempDir()
	for id, bad := range map[string]*core.Model{"plain": m.Clone(), "misfit": misfit} {
		for _, v := range []*core.Model{bad, good} {
			if _, err := adapt.SaveVersion(filepath.Join(dir, id), v, "test"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := adapt.SaveVersion(filepath.Join(dir, "onlybad"), m.Clone(), "test"); err != nil {
		t.Fatal(err)
	}

	reg := tenant.New(m, nil, nil, tenant.Config{Dir: dir})
	if n, err := reg.EnableTenants(); err != nil || n != 2 {
		t.Fatalf("EnableTenants = %d, %v; want plain and misfit at their v2, onlybad skipped", n, err)
	}
	s := NewWithRegistry(reg, pipelineConfig())
	t.Cleanup(s.Close)
	h := s.Handler()
	body := planBody(t, samples[50].Plan)

	for _, id := range []string{"plain", "misfit"} {
		tn, ok := reg.Get(id)
		if !ok {
			t.Fatalf("tenant %s not loaded", id)
		}
		before := tn.State()
		_, wantBytes := doReq(h, http.MethodPost, "/predict", id, body)
		var refusals []string
		for _, target := range []string{"/adapter/load?version=1", "/adapter/rollback"} {
			code, msg := doReq(h, http.MethodPost, "/tenants/"+id+target, "", nil)
			if code != http.StatusUnprocessableEntity {
				t.Fatalf("%s%s: %d %s, want 422", id, target, code, msg)
			}
			refusals = append(refusals, string(msg))
		}
		if refusals[0] != refusals[1] {
			t.Fatalf("%s: load and rollback refuse the one artifact differently:\n%s%s", id, refusals[0], refusals[1])
		}
		if tn.State() != before {
			t.Fatalf("%s: a refused artifact republished the snapshot", id)
		}
		if _, got := doReq(h, http.MethodPost, "/predict", id, body); string(got) != string(wantBytes) {
			t.Fatalf("%s: a refused artifact changed what the tenant predicts", id)
		}
		if man, err := adapt.ReadManifest(filepath.Join(dir, id)); err != nil || man.Current != 2 {
			t.Fatalf("%s: manifest current %+v (%v) after the refusals, want 2", id, man, err)
		}
	}

	if _, ok := reg.Get("onlybad"); ok {
		t.Fatal("EnableTenants registered a tenant whose only artifact carries no adapters")
	}
	if code, msg := doReq(h, http.MethodPost, "/tenants/onlybad/adapter/load?version=1", "", nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("onlybad adapter/load: %d %s, want 422", code, msg)
	}
	if code, _ := doReq(h, http.MethodGet, "/tenants/onlybad", "", nil); code != http.StatusNotFound {
		t.Fatalf("GET /tenants/onlybad after its refused load: %d, want 404 — the failed load left a tenant behind", code)
	}
	// A load that succeeds still registers its id on the way.
	if _, err := adapt.SaveVersion(filepath.Join(dir, "late"), good, "test"); err != nil {
		t.Fatal(err)
	}
	if code, msg := doReq(h, http.MethodPost, "/tenants/late/adapter/load?version=1", "", nil); code != http.StatusOK {
		t.Fatalf("late adapter/load: %d %s", code, msg)
	}
	if tn, ok := reg.Get("late"); !ok || tn.State().Version != 1 {
		t.Fatal("a successful adapter/load on a new id did not register it at that version")
	}
}

// TestOnePoolBoundsEveryDomain: the base model and three tenants, all due at
// once, on a one-worker pool. At most one of them is ever fine-tuning, each
// gets its turn, and Stop returns only once the attempt in flight has
// reached its verdict.
func TestOnePoolBoundsEveryDomain(t *testing.T) {
	seed, m2Samples := driftFixture(t)
	pool := adapt.NewPool(1)
	defer pool.Stop()

	// Tenant zero with a drift threshold; the named tenants get the same
	// settings without it.
	reg := tenant.New(seed, feedback.NewStore(512, 1), nil, tenant.Config{Pool: pool, Adapt: adapt.Config{
		MinSamples: 50, Epochs: 3, DriftThreshold: 1.01, DriftWindow: 32, Seed: 7,
	}})
	if _, err := reg.EnableTenants(); err != nil {
		t.Fatal(err)
	}
	base := reg.Zero()
	domains := map[string]interface{ StatusNow() adapt.Status }{"base": base}
	observe := []func(smp dataset.Sample){func(smp dataset.Sample) {
		base.Observe(flat(smp.Plan), smp.Plan.Root.ActualMS, seed.Predict(smp.Plan))
	}}
	for i := 0; i < 3; i++ {
		tn, _, err := reg.Register(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		domains[tn.Info().ID] = tn
		observe = append(observe, func(smp dataset.Sample) {
			tn.Observe(flat(smp.Plan), smp.Plan.Root.ActualMS, seed.Predict(smp.Plan))
		})
	}

	// running counts the domains fine-tuning at one instant: the statuses are
	// collected twice and kept only when nothing moved in between (an attempt
	// that starts bumps Runs, one that ends clears Running), so one domain's
	// end and the next one's start are never counted together.
	type mark struct {
		running bool
		runs    int
	}
	collect := func() (marks [4]mark) {
		for i, id := range [4]string{"base", "t0", "t1", "t2"} {
			st := domains[id].StatusNow()
			marks[i] = mark{st.Running, st.Runs}
		}
		return marks
	}
	running := func() (n int) {
		marks := collect()
		for again := collect(); again != marks; again = collect() {
			marks = again
		}
		for _, m := range marks {
			if m.running {
				n++
			}
		}
		return n
	}
	stopSampling, sampled := make(chan struct{}), make(chan int)
	go func() {
		most := 0
		for {
			select {
			case <-stopSampling:
				sampled <- most
				return
			default:
				most = max(most, running())
				runtime.Gosched()
			}
		}
	}()

	// Every domain crosses its trigger within a few samples of the others.
	for _, smp := range m2Samples[:120] {
		for _, obs := range observe {
			obs(smp)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for id, d := range domains {
		for d.StatusNow().Runs == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("domain %s was never attempted", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(stopSampling)
	if most := <-sampled; most != 1 {
		t.Fatalf("at most %d domains were fine-tuning at a sampled instant, want 1 on a one-worker pool", most)
	}

	// Stop with an attempt in flight: it finishes first.
	for running() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no attempt in flight to stop under")
		}
		for _, obs := range observe {
			obs(m2Samples[0])
		}
		time.Sleep(time.Millisecond)
	}
	pool.Stop()
	for id, d := range domains {
		if st := d.StatusNow(); st.Running || st.Runs != st.Promotions+st.Rejections {
			t.Fatalf("after Stop domain %s has an attempt without a verdict: %+v", id, st)
		}
	}
}
