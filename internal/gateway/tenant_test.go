package gateway

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dace/internal/core"
	"dace/internal/plan"
	"dace/internal/tenant"
)

// gwPerturbedAdapters mirrors the serve tests' helper: an adapter set whose
// low-rank update is a deterministic non-zero function of seed, so every
// replica builds bitwise-identical tenant views.
func gwPerturbedAdapters(cfg core.Config, seed int64) *core.AdapterSet {
	as := core.NewAdapterSet(cfg, seed)
	for li, l := range as.Layers {
		for i := range l.Up.Value.Data {
			l.Up.Value.Data[i] = 0.01 * float64((int64(li+1)*7+int64(i)+seed)%13-6)
		}
	}
	return as
}

// postTenant posts a plan with an optional X-DACE-Tenant header.
func postTenant(t *testing.T, url, tenantID string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenantID != "" {
		req.Header.Set("X-DACE-Tenant", tenantID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestGatewayTenantForwarding: tenant identity survives the gateway hop
// with the serve layer's semantics intact — an explicit header selects the
// tenant's adapter view (and 404s when unknown), an implicit database param
// selects it when it matches and falls back to the base model when it
// doesn't, and routed tenant responses are byte-identical to direct ones.
func TestGatewayTenantForwarding(t *testing.T) {
	m, samples := trainedModel(t)
	f := newFleet(t, m, 3, func(int) *tenant.Registry {
		reg := tenant.New(m, nil, nil, tenant.Config{})
		if _, err := reg.EnableTenants(); err != nil {
			t.Fatal(err)
		}
		alpha, _, err := reg.Register("alpha")
		if err != nil {
			t.Fatal(err)
		}
		alpha.Publish(reg.Base().WithAdapters(gwPerturbedAdapters(m.Cfg, 1)), 0)
		return reg
	})
	body := planJSON(t, samples[0].Plan)
	direct := f.backends[0].URL

	st, base := postTenant(t, f.front.URL+"/predict", "", body)
	if st != http.StatusOK {
		t.Fatalf("routed base status %d: %s", st, base)
	}
	st, wantAlpha := postTenant(t, direct+"/predict", "alpha", body)
	if st != http.StatusOK {
		t.Fatalf("direct alpha status %d: %s", st, wantAlpha)
	}
	if bytes.Equal(wantAlpha, base) {
		t.Fatal("alpha's adapter view predicts identically to the base model; test is vacuous")
	}

	// Explicit header: forwarded, resolved, byte-identical to direct.
	st, got := postTenant(t, f.front.URL+"/predict", "alpha", body)
	if st != http.StatusOK || !bytes.Equal(got, wantAlpha) {
		t.Fatalf("routed alpha: status %d, direct-equal %v; want 200 + direct bytes", st, bytes.Equal(got, wantAlpha))
	}
	// Explicit unknown: the replica's 404 passes through.
	if st, _ = postTenant(t, f.front.URL+"/predict", "ghost", body); st != http.StatusNotFound {
		t.Fatalf("routed unknown tenant status %d, want 404", st)
	}
	// Implicit database param: forwarded as a query param, resolves the tenant.
	st, got = postTenant(t, f.front.URL+"/predict?database=alpha", "", body)
	if st != http.StatusOK || !bytes.Equal(got, wantAlpha) {
		t.Fatalf("routed ?database=alpha: status %d, direct-equal %v; want 200 + alpha bytes", st, bytes.Equal(got, wantAlpha))
	}
	// Implicit miss: base-model fallback survives the hop.
	st, got = postTenant(t, f.front.URL+"/predict?database=nosuch", "", body)
	if st != http.StatusOK || !bytes.Equal(got, base) {
		t.Fatalf("routed ?database=nosuch: status %d, base-equal %v; want 200 + base bytes", st, bytes.Equal(got, base))
	}

	// Batch: every entry of a tenant batch is served by the tenant's view.
	var batch bytes.Buffer
	batch.WriteString("[")
	for i := 0; i < 4; i++ {
		if i > 0 {
			batch.WriteString(",")
		}
		batch.Write(planJSON(t, samples[i].Plan))
	}
	batch.WriteString("]")
	st, wantBatch := postTenant(t, direct+"/predict/batch", "alpha", batch.Bytes())
	if st != http.StatusOK {
		t.Fatalf("direct alpha batch status %d: %s", st, wantBatch)
	}
	st, gotBatch := postTenant(t, f.front.URL+"/predict/batch", "alpha", batch.Bytes())
	if st != http.StatusOK || !bytes.Equal(gotBatch, wantBatch) {
		t.Fatalf("routed alpha batch: status %d, direct-equal %v; want 200 + direct bytes", st, bytes.Equal(gotBatch, wantBatch))
	}
}

// TestRoutedTenantPredictZeroAlloc extends the gateway's allocation guard
// to the tenant path: carrying an X-DACE-Tenant header across the hop adds
// zero allocations to the routed /predict steady state.
func TestRoutedTenantPredictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	const reply = `{"root_ms":4.25,"subplans":[]}` + "\n"
	response := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(reply), reply)
	addr, stop := loopServer(t, response)
	defer stop()

	gw, err := New(Config{Replicas: []string{addr}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	p := &plan.Plan{Database: "db", Root: &plan.Node{
		Type: 3, EstRows: 100, EstCost: 42.5, ActualRows: 90, ActualMS: 7,
		Children: []*plan.Node{{Type: 1, EstRows: 10, EstCost: 2, ActualRows: 9, ActualMS: 1}},
	}}
	binBody, err := plan.AppendBinary(nil, p)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, target, hdr string
	}{
		{"header", "/predict", "alpha"},
		{"database-param", "/predict?database=alpha", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := &replayBody{data: binBody}
			req := httptest.NewRequest(http.MethodPost, tc.target, nil)
			req.Header.Set("Content-Type", plan.BinaryContentType)
			if tc.hdr != "" {
				req.Header.Set("X-DACE-Tenant", tc.hdr)
			}
			req.Body = body
			w := &nullResponseWriter{h: make(http.Header)}
			do := func() {
				body.off = 0
				gw.handlePredict(w, req)
				if w.code != 0 && w.code != http.StatusOK {
					t.Fatalf("status %d", w.code)
				}
			}
			do()
			if avg := testing.AllocsPerRun(200, do); avg != 0 {
				t.Errorf("routed tenant /predict (%s) allocates %.1f/op at steady state, want 0", tc.name, avg)
			}
		})
	}
}
