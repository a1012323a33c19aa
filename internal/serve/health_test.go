package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"dace/internal/core"
)

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestReadinessLifecycle: /healthz/live always answers 200; /healthz/ready
// is 503 before the first model load, 200 once one is served, and pinned
// 503 (with Retry-After) from BeginDrain onward — including after a later
// Publish, because drain is terminal.
func TestReadinessLifecycle(t *testing.T) {
	s := NewWithConfig(nil, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if resp := get(t, srv.URL+"/healthz/live"); resp.StatusCode != http.StatusOK {
		t.Fatalf("live before model: %d", resp.StatusCode)
	}
	resp := get(t, srv.URL+"/healthz/ready")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ready before model: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("not-ready response missing Retry-After")
	}

	s.Publish(core.NewModel(core.DefaultConfig()), 0)
	if resp := get(t, srv.URL+"/healthz/ready"); resp.StatusCode != http.StatusOK {
		t.Fatalf("ready after model load: %d", resp.StatusCode)
	}
	if !s.Ready() {
		t.Fatal("Ready() false with a model and no drain")
	}

	s.BeginDrain()
	resp = get(t, srv.URL+"/healthz/ready")
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("ready during drain: %d", resp.StatusCode)
	}
	if resp := get(t, srv.URL+"/healthz/live"); resp.StatusCode != http.StatusOK {
		t.Fatalf("live during drain: %d", resp.StatusCode)
	}
	s.Publish(core.NewModel(core.DefaultConfig()), 0)
	if s.Ready() {
		t.Fatal("drain must pin readiness off even after Publish")
	}
}

// TestHealthReportsReadiness: the composite /healthz document carries the
// readiness bit and model version.
func TestHealthReportsReadiness(t *testing.T) {
	s, _ := trainedServer(t)
	s.Publish(s.Model(), 7)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var h Health
	resp := get(t, srv.URL+"/healthz")
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.Ready || h.ModelVersion != 7 {
		t.Fatalf("health %+v", h)
	}
}

// freshLoader is a base Domain whose Load publishes a new model for any
// version below 100 and remembers it.
type freshLoader struct {
	Domain
	s      *Server
	loaded map[int]*core.Model
}

func (f freshLoader) Load(v int) (int, error) {
	if v >= 100 {
		return 0, fmt.Errorf("no artifact v%d", v)
	}
	f.loaded[v] = core.NewModel(core.DefaultConfig())
	_, prev := f.s.Served()
	f.s.Publish(f.loaded[v], v)
	return prev, nil
}

// TestModelLoadEndpoint: POST /model/load swaps the served model through
// the base domain's Load and reports old and new versions; GET /model reads
// them.
func TestModelLoadEndpoint(t *testing.T) {
	s, _ := trainedServer(t)
	loaded := map[int]*core.Model{}
	s.Base = freshLoader{s: s, loaded: loaded}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/model/load?version=4", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model load: %d", resp.StatusCode)
	}
	var st ModelStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Version != 4 || st.Previous == nil || *st.Previous != 0 || !st.Ready {
		t.Fatalf("model status %+v", st)
	}
	if m, v := s.Served(); m != loaded[4] || v != 4 {
		t.Fatalf("served (%p, v%d), want the loaded artifact at v4", m, v)
	}

	// Load failure: 502, serving state untouched.
	resp2, err := http.Post(srv.URL+"/model/load?version=100", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadGateway {
		t.Fatalf("unloadable version: %d, want 502", resp2.StatusCode)
	}
	if m, v := s.Served(); m != loaded[4] || v != 4 {
		t.Fatal("failed load must not change the served model")
	}

	// Malformed version: 400.
	resp3, err := http.Post(srv.URL+"/model/load?version=x", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad version: %d, want 400", resp3.StatusCode)
	}

	// GET /model mirrors the state.
	gresp := get(t, srv.URL+"/model")
	var cur ModelStatus
	if err := json.NewDecoder(gresp.Body).Decode(&cur); err != nil {
		t.Fatal(err)
	}
	if cur.Version != 4 || !cur.Ready {
		t.Fatalf("GET /model: %+v", cur)
	}
}

// TestModelEndpointsAbsentWithoutLoader: a server with no base domain does
// not expose remote model management at all.
func TestModelEndpointsAbsentWithoutLoader(t *testing.T) {
	s, _ := trainedServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/model/load?version=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("model load without a base domain: %d, want 404", resp.StatusCode)
	}
}
