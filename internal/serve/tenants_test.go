package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dace/internal/core"
	"dace/internal/dataset"
	"dace/internal/plan"
	"dace/internal/telemetry"
	"dace/internal/tenant"
)

// perturbedAdapters builds an adapter set whose low-rank update is NOT a
// no-op: fresh sets ship a zero Up factor, so the test fills it with small
// deterministic values keyed by seed to make each tenant's predictions
// distinct.
func perturbedAdapters(cfg core.Config, seed int64) *core.AdapterSet {
	as := core.NewAdapterSet(cfg, seed)
	for li, l := range as.Layers {
		for i := range l.Up.Value.Data {
			l.Up.Value.Data[i] = 0.01 * float64((int64(li+1)*7+int64(i)+seed)%13-6)
		}
	}
	return as
}

// serveAdapters registers tenant id on reg (if needed) and serves as over
// the shared base at artifact version 0.
func serveAdapters(t *testing.T, reg *tenant.Registry, id string, as *core.AdapterSet) {
	t.Helper()
	tn, _, err := reg.Register(id)
	if err != nil {
		t.Fatal(err)
	}
	tn.Publish(reg.Base().WithAdapters(as), 0)
}

// tenantServer wires a pipeline server over a frozen base shared by two
// adapted tenants, "alpha" and "beta".
func tenantServer(t *testing.T) (*Server, *tenant.Registry, []dataset.Sample) {
	t.Helper()
	m, samples := trainedModel(t)
	reg := tenant.New(m, nil, nil, tenant.Config{})
	if _, err := reg.EnableTenants(); err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"alpha", "beta"} {
		serveAdapters(t, reg, id, perturbedAdapters(m.Cfg, int64(i+1)))
	}
	s := NewWithRegistry(reg, pipelineConfig())
	t.Cleanup(s.Close)
	return s, reg, samples
}

func postPredictTenant(t *testing.T, h http.Handler, body []byte, target, tenantID string) (int, []byte) {
	t.Helper()
	return doReq(h, http.MethodPost, target, tenantID, body)
}

// TestTenantResolution pins the request→tenant mapping: the X-DACE-Tenant
// header selects a tenant and must exist; the database param selects a
// tenant when it matches one and falls back to the base model when it
// doesn't; the header wins when both are present.
func TestTenantResolution(t *testing.T) {
	s, _, samples := tenantServer(t)
	h := s.Handler()
	body := planBody(t, samples[0].Plan)

	code, base := postPredictTenant(t, h, body, "/predict", "")
	if code != http.StatusOK {
		t.Fatalf("base predict status %d", code)
	}
	code, alpha := postPredictTenant(t, h, body, "/predict", "alpha")
	if code != http.StatusOK {
		t.Fatalf("alpha predict status %d", code)
	}
	if string(alpha) == string(base) {
		t.Fatal("tenant alpha served the base model's predictions; adapters not applied")
	}

	// An explicitly named unknown tenant is a client error, not a fallback.
	if code, _ = postPredictTenant(t, h, body, "/predict", "ghost"); code != http.StatusNotFound {
		t.Fatalf("unknown explicit tenant: status %d, want 404", code)
	}
	// A database value matching no tenant keeps pre-tenant clients working.
	code, resp := postPredictTenant(t, h, body, "/predict?database=ghost", "")
	if code != http.StatusOK || string(resp) != string(base) {
		t.Fatalf("unmatched database param: status %d, base-equal %v; want 200 + base predictions",
			code, string(resp) == string(base))
	}
	// A database value naming a tenant resolves it...
	code, resp = postPredictTenant(t, h, body, "/predict?database=alpha", "")
	if code != http.StatusOK || string(resp) != string(alpha) {
		t.Fatalf("database=alpha: status %d, alpha-equal %v; want 200 + alpha predictions",
			code, string(resp) == string(alpha))
	}
	// ...but the header outranks it.
	code, resp = postPredictTenant(t, h, body, "/predict?database=ghost", "alpha")
	if code != http.StatusOK || string(resp) != string(alpha) {
		t.Fatalf("header over database param: status %d, alpha-equal %v; want 200 + alpha predictions",
			code, string(resp) == string(alpha))
	}
}

// TestTenantHotSwapIsolation is the serve-level domain-isolation check:
// swapping tenant alpha's adapters must change alpha's responses immediately
// (no stale cache hit — the salt rotated) while leaving tenant beta's and
// the base model's cached responses byte-for-byte untouched; swapping the
// base model must do the same to the base domain and cost no tenant a hit.
func TestTenantHotSwapIsolation(t *testing.T) {
	s, reg, samples := tenantServer(t)
	h := s.Handler()
	body := planBody(t, samples[1].Plan)

	get := func(id string) []byte {
		t.Helper()
		code, resp := postPredictTenant(t, h, body, "/predict", id)
		if code != http.StatusOK {
			t.Fatalf("tenant %q status %d", id, code)
		}
		return resp
	}
	base1, alpha1, beta1 := get(""), get("alpha"), get("beta")
	// Serve each twice so the swap test below exercises warm cache entries.
	get("")
	get("alpha")
	get("beta")

	m := reg.Base()
	serveAdapters(t, reg, "alpha", perturbedAdapters(m.Cfg, 99))

	if alpha2 := get("alpha"); string(alpha2) == string(alpha1) {
		t.Fatal("alpha still serves pre-swap predictions: stale cache entry crossed the generation bump")
	}
	if beta2 := get("beta"); string(beta2) != string(beta1) {
		t.Fatal("alpha's hot-swap perturbed beta's predictions")
	}
	if base2 := get(""); string(base2) != string(base1) {
		t.Fatal("alpha's hot-swap perturbed the global domain's predictions")
	}

	// A base-model swap is one more domain's hot-swap: beta's warm body- and
	// plan-cache entries keep answering without a forward, while the base
	// domain's next request misses and is answered by the new model.
	health := func() Health {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var doc Health
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	newBase := m.WithAdapters(perturbedAdapters(m.Cfg, 7))
	s.Publish(newBase, 2)
	pre := health()
	if beta3 := get("beta"); string(beta3) != string(beta1) {
		t.Fatal("the base swap perturbed beta's predictions")
	}
	binBody, err := plan.AppendBinary(nil, samples[1].Plan)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(binBody))
	req.Header.Set("Content-Type", plan.BinaryContentType)
	req.Header.Set("X-DACE-Tenant", "beta")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Body.String() != string(beta1) {
		t.Fatalf("beta's plan re-sent as a binary frame: status %d, beta-equal %v", rec.Code, rec.Body.String() == string(beta1))
	}
	mid := health()
	if mid.BodyCache.Hits != pre.BodyCache.Hits+1 || mid.PlanCache.Hits != pre.PlanCache.Hits+1 ||
		mid.Queue.Batches != pre.Queue.Batches {
		t.Fatalf("the base swap cost beta its cache entries: body hits %d→%d, plan hits %d→%d, forwards %d→%d; want +1, +1, +0",
			pre.BodyCache.Hits, mid.BodyCache.Hits, pre.PlanCache.Hits, mid.PlanCache.Hits, pre.Queue.Batches, mid.Queue.Batches)
	}
	_, fresh := postPredict(t, New(newBase).Handler(), body)
	base3 := get("")
	post := health()
	if post.BodyCache.Hits != mid.BodyCache.Hits || post.PlanCache.Hits != mid.PlanCache.Hits ||
		post.Queue.Batches != mid.Queue.Batches+1 {
		t.Fatal("the base domain's first request after its swap was not a miss on both caches")
	}
	if string(base3) != string(fresh) || string(base3) == string(base1) {
		t.Fatal("the base domain's first request after its swap was not answered by the new model")
	}
	if post.ModelVersion != 2 {
		t.Fatalf("/healthz model_version %d after Publish(_, 2)", post.ModelVersion)
	}
}

// TestTenantCacheHitZeroAlloc extends the pipeline's allocation guard to
// the tenant path: a tenant-resolved body-cache hit — header lookup,
// registry resolve, salted key, cached render — allocates nothing.
func TestTenantCacheHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	s, _, samples := tenantServer(t)
	body := &replayBody{data: planBody(t, samples[0].Plan)}
	req := httptest.NewRequest(http.MethodPost, "/predict", nil)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-DACE-Tenant", "alpha")
	req.Body = body
	w := &nullResponseWriter{h: make(http.Header)}
	do := func() {
		body.off = 0
		s.handlePredict(w, req)
	}
	do() // warm: populates the tenant's body-cache domain
	if avg := testing.AllocsPerRun(200, do); avg != 0 {
		t.Fatalf("tenant cache-hit /predict allocates %.2f/op, want 0", avg)
	}
}

// TestTenantFeedbackRouting checks that /feedback with a tenant identity
// lands in that tenant's replay store, and without one in tenant zero's.
func TestTenantFeedbackRouting(t *testing.T) {
	s, reg, samples := tenantServer(t)
	h := s.Handler()

	fb := map[string]any{"plan": json.RawMessage(planBody(t, samples[2].Plan)), "actual_ms": 12.5}
	doc, err := json.Marshal(fb)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/feedback", strings.NewReader(string(doc)))
	req.Header.Set("X-DACE-Tenant", "beta")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("tenant feedback status %d: %s", rec.Code, rec.Body.String())
	}
	beta, ok := reg.Get("beta")
	if !ok {
		t.Fatal("beta vanished")
	}
	if ti := beta.Info(); ti.Feedback != 1 || ti.Backlog != 1 {
		t.Fatalf("beta feedback=%d backlog=%d, want 1/1", ti.Feedback, ti.Backlog)
	}
	if alpha, _ := reg.Get("alpha"); alpha.Info().Feedback != 0 {
		t.Fatal("beta's feedback leaked into alpha's stream")
	}

	// No tenant: tenant zero's stream, nobody else's.
	req = httptest.NewRequest(http.MethodPost, "/feedback", strings.NewReader(string(doc)))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("tenantless feedback status %d, want 202", rec.Code)
	}
	if zero := reg.Zero().Info(); zero.Feedback != 1 || beta.Info().Feedback != 1 {
		t.Fatalf("tenantless feedback: zero saw %d, beta %d; want 1 each", zero.Feedback, beta.Info().Feedback)
	}
}

// TestTenantsEndpoints walks the /tenants HTTP tree.
func TestTenantsEndpoints(t *testing.T) {
	s, _, _ := tenantServer(t)
	h := s.Handler()

	do := func(method, target string) (int, []byte) {
		t.Helper()
		req := httptest.NewRequest(method, target, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}

	code, resp := do(http.MethodGet, "/tenants")
	if code != http.StatusOK {
		t.Fatalf("GET /tenants status %d", code)
	}
	var list []tenant.Info
	if err := json.Unmarshal(resp, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != "alpha" || list[1].ID != "beta" {
		t.Fatalf("GET /tenants = %+v, want sorted [alpha beta]", list)
	}
	if !list[0].Adapted || list[0].Gen < 2 {
		t.Fatalf("alpha info %+v: want adapted at generation ≥ 2", list[0])
	}

	if code, _ = do(http.MethodPost, "/tenants/gamma"); code != http.StatusCreated {
		t.Fatalf("POST /tenants/gamma status %d, want 201", code)
	}
	if code, _ = do(http.MethodPost, "/tenants/gamma"); code != http.StatusOK {
		t.Fatalf("repeat POST /tenants/gamma status %d, want 200 (idempotent)", code)
	}
	if code, _ = do(http.MethodGet, "/tenants/gamma"); code != http.StatusOK {
		t.Fatalf("GET /tenants/gamma status %d", code)
	}
	if code, _ = do(http.MethodGet, "/tenants/ghost"); code != http.StatusNotFound {
		t.Fatalf("GET /tenants/ghost status %d, want 404", code)
	}
	if code, _ = do(http.MethodPost, "/tenants/"+strings.Repeat("x", 200)); code != http.StatusBadRequest {
		t.Fatalf("oversized tenant ID status %d, want 400", code)
	}

	if code, _ = do(http.MethodGet, "/tenants/gamma/adapt/status"); code != http.StatusOK {
		t.Fatalf("GET adapt/status status %d", code)
	}
	if code, _ = do(http.MethodPost, "/tenants/ghost/adapt/trigger"); code != http.StatusNotFound {
		t.Fatalf("trigger unknown tenant status %d, want 404", code)
	}
	// gamma has zero samples: the gate refuses, a 422 — not a 500, not a hang.
	if code, _ = do(http.MethodPost, "/tenants/gamma/adapt/trigger"); code != http.StatusUnprocessableEntity {
		t.Fatalf("sampleless trigger status %d, want 422", code)
	}
	if code, _ = do(http.MethodPost, "/tenants/gamma/adapter/load"); code != http.StatusBadRequest {
		t.Fatalf("adapter/load without version status %d, want 400", code)
	}
	// No tenants dir is configured, so a well-formed load cannot succeed.
	if code, _ = do(http.MethodPost, "/tenants/gamma/adapter/load?version=1"); code != http.StatusUnprocessableEntity {
		t.Fatalf("dirless adapter/load status %d, want 422", code)
	}
	if code, _ = do(http.MethodGet, "/tenants/gamma/bogus"); code != http.StatusNotFound {
		t.Fatalf("unknown subresource status %d, want 404", code)
	}
}

// TestHealthzReportsTenants checks the per-tenant version map on /healthz.
func TestHealthzReportsTenants(t *testing.T) {
	s, _, _ := tenantServer(t)
	h := s.Handler()

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz status %d", rec.Code)
	}
	var health Health
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Tenants != 2 || len(health.TenantVersions) != 2 {
		t.Fatalf("healthz tenants=%d versions=%v, want 2 tenants", health.Tenants, health.TenantVersions)
	}
	for _, id := range []string{"alpha", "beta"} {
		if _, ok := health.TenantVersions[id]; !ok {
			t.Fatalf("healthz tenant_versions missing %q: %v", id, health.TenantVersions)
		}
	}
}

// TestBatcherMixedTenants drives concurrent predictions across tenants
// through one admission stage — two slots, so requests for different models
// run side by side and wait behind each other — and checks every response
// against its tenant's uncached baseline, values and bytes.
func TestBatcherMixedTenants(t *testing.T) {
	s, reg, samples := tenantServer(t)
	s.Workers = 2
	h := s.Handler()
	base := reg.Base()

	// Uncached baselines straight from each tenant's view.
	ids := []string{"", "alpha", "beta"}
	want := make(map[string][][]float64)
	wantBytes := make(map[string][][]byte)
	for _, id := range ids {
		m := base
		if id != "" {
			tn, ok := reg.Get(id)
			if !ok {
				t.Fatalf("tenant %q missing", id)
			}
			m = tn.State().View
		}
		preds := make([][]float64, 6)
		plain := New(m).Handler() // serve.New around the tenant's view: no cache
		for i := range preds {
			preds[i] = m.PredictSubPlans(samples[i].Plan)
			_, resp := postPredict(t, plain, planBody(t, samples[i].Plan))
			wantBytes[id] = append(wantBytes[id], resp)
		}
		want[id] = preds
	}

	type result struct {
		id   string
		i    int
		resp []byte
		code int
	}
	// Every plan goes to every tenant, five times each — cold once, cached
	// after — three times as JSON and twice as a binary frame.
	results := make(chan result, 90)
	for c := 0; c < 90; c++ {
		go func(c int) {
			i := c % 6
			id := ids[c/6%len(ids)]
			body, ct := planBody(t, samples[i].Plan), "application/json"
			if c/18%2 == 1 {
				var err error
				if body, err = plan.AppendBinary(nil, samples[i].Plan); err != nil {
					t.Error(err)
				}
				ct = plan.BinaryContentType
			}
			req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
			req.Header.Set("Content-Type", ct)
			if id != "" {
				req.Header.Set("X-DACE-Tenant", id)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			results <- result{id: id, i: i, resp: rec.Body.Bytes(), code: rec.Code}
		}(c)
	}
	for c := 0; c < 90; c++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("tenant %q plan %d: status %d", r.id, r.i, r.code)
		}
		if !bytes.Equal(r.resp, wantBytes[r.id][r.i]) {
			t.Fatalf("tenant %q plan %d: response bytes diverged from serve.New on the tenant's view", r.id, r.i)
		}
		var got Prediction
		if err := json.Unmarshal(r.resp, &got); err != nil {
			t.Fatal(err)
		}
		exp := want[r.id][r.i]
		if len(got.SubPlans) != len(exp) {
			t.Fatalf("tenant %q plan %d: %d sub-plans, want %d", r.id, r.i, len(got.SubPlans), len(exp))
		}
		if got.RootMS != exp[0] {
			t.Fatalf("tenant %q plan %d: root %v != %v (bitwise)", r.id, r.i, got.RootMS, exp[0])
		}
		for k := range got.SubPlans {
			if got.SubPlans[k].PredictedMS != exp[k] {
				t.Fatalf("tenant %q plan %d node %d: %v != %v (bitwise)", r.id, r.i, k, got.SubPlans[k].PredictedMS, exp[k])
			}
		}
	}
}

// TestPlanCacheSaltedPerTenant ensures the fingerprint→predictions cache
// cannot answer across tenants even for identical plans: after alpha warms
// an entry, beta's first request for the same plan must still produce
// beta's own predictions.
func TestPlanCacheSaltedPerTenant(t *testing.T) {
	s, reg, samples := tenantServer(t)
	h := s.Handler()
	body := planBody(t, samples[3].Plan)

	if code, _ := postPredictTenant(t, h, body, "/predict", "alpha"); code != http.StatusOK {
		t.Fatalf("alpha warm status %d", code)
	}
	vb, _ := reg.Get("beta")
	wantPreds := vb.State().View.PredictSubPlans(samples[3].Plan)
	code, resp := postPredictTenant(t, h, body, "/predict", "beta")
	if code != http.StatusOK {
		t.Fatalf("beta status %d", code)
	}
	var got Prediction
	if err := json.Unmarshal(resp, &got); err != nil {
		t.Fatal(err)
	}
	if got.RootMS != wantPreds[0] {
		t.Fatalf("beta served root %v, want its own view's %v — alpha's cache entry crossed domains", got.RootMS, wantPreds[0])
	}
}

// TestPredictBatchTenantScoped covers /predict/batch through a tenant:
// responses must match the tenant's view bitwise, not the base model.
func TestPredictBatchTenantScoped(t *testing.T) {
	s, reg, samples := tenantServer(t)
	h := s.Handler()

	var doc strings.Builder
	doc.WriteString("[")
	for i := 0; i < 4; i++ {
		if i > 0 {
			doc.WriteString(",")
		}
		doc.Write(planBody(t, samples[i].Plan))
	}
	doc.WriteString("]")
	req := httptest.NewRequest(http.MethodPost, "/predict/batch", strings.NewReader(doc.String()))
	req.Header.Set("X-DACE-Tenant", "alpha")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/predict/batch status %d: %s", rec.Code, rec.Body.String())
	}
	var got []Prediction
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("%d results, want 4", len(got))
	}
	va, _ := reg.Get("alpha")
	for i := range got {
		want := va.State().View.PredictSubPlans(samples[i].Plan)
		if got[i].RootMS != want[0] {
			t.Fatalf("batch result %d: root %v != alpha's %v (bitwise)", i, got[i].RootMS, want[0])
		}
	}
}

// TestTenantZeroIsNeverListed: tenant zero answers every request that
// names no tenant, yet no outside view lists it as a tenant — not GET
// /tenants, not /healthz, not a dace_tenant_* series.
func TestTenantZeroIsNeverListed(t *testing.T) {
	m, samples := trainedModel(t)
	metrics := telemetry.NewRegistry()
	reg := tenant.New(m, nil, nil, tenant.Config{Metrics: metrics})
	if _, err := reg.EnableTenants(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Register("alpha"); err != nil {
		t.Fatal(err)
	}
	s := NewWithRegistry(reg, Config{Metrics: metrics})
	t.Cleanup(s.Close)
	h := s.Handler()
	if code, _ := doReq(h, http.MethodPost, "/predict", "", planBody(t, samples[0].Plan)); code != http.StatusOK {
		t.Fatalf("tenant zero predict: %d", code)
	}

	var list []tenant.Info
	getDoc(t, h, "/tenants", &list)
	var health Health
	getDoc(t, h, "/healthz", &health)
	if len(list) != 1 || list[0].ID != "alpha" || health.Tenants != 1 || len(health.TenantVersions) != 1 {
		t.Fatalf("/tenants %+v, /healthz tenants=%d %v; want alpha alone", list, health.Tenants, health.TenantVersions)
	}
	_, body := doReq(h, http.MethodGet, "/metrics", "", nil)
	if !strings.Contains(string(body), `dace_tenant_requests_total{tenant="alpha"}`) || strings.Contains(string(body), `tenant=""`) {
		t.Fatalf("/metrics should carry alpha's series and none for tenant zero:\n%s", body)
	}
}
