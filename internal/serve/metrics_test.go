package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dace/internal/adapt"
	"dace/internal/dataset"
	"dace/internal/plan"
	"dace/internal/telemetry"
)

// nopDomain is a stub base domain, so the feedback, adapt and model
// endpoints register.
type nopDomain struct{}

func (nopDomain) Observe(*plan.FlatPlan, float64, float64) {}
func (nopDomain) StatusNow() adapt.Status                  { return adapt.Status{} }
func (nopDomain) RunOnce() (*adapt.Outcome, error)         { return &adapt.Outcome{}, nil }
func (nopDomain) Load(int) (int, error)                    { return 0, nil }
func (nopDomain) Rollback() (int, error)                   { return 0, nil }

// metricsServer is a fully-wired server: caching, admission, telemetry, and
// the feedback/adapt endpoints, so every route is registered.
func metricsServer(t *testing.T) (*httptest.Server, []dataset.Sample) {
	t.Helper()
	s, samples := trainedServer(t)
	s2 := NewWithConfig(s.Model(), Config{
		CacheSize: 64,
		MaxBatch:  4,
		Metrics:   telemetry.NewRegistry(),
	})
	s2.Base = nopDomain{}
	t.Cleanup(s2.Close)
	srv := httptest.NewServer(s2.Handler())
	t.Cleanup(srv.Close)
	return srv, samples
}

// TestMethodNotAllowed sweeps every endpoint with the wrong method and
// demands 405 plus an Allow header naming the one accepted method.
func TestMethodNotAllowed(t *testing.T) {
	srv, _ := metricsServer(t)
	cases := []struct {
		path  string
		allow string // the single accepted method
	}{
		{"/predict", http.MethodPost},
		{"/predict/batch", http.MethodPost},
		{"/feedback", http.MethodPost},
		{"/adapt/trigger", http.MethodPost},
		{"/adapt/status", http.MethodGet},
		{"/healthz", http.MethodGet},
		{"/metrics", http.MethodGet},
	}
	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			wrong := http.MethodGet
			if tc.allow == http.MethodGet {
				wrong = http.MethodPost
			}
			req, err := http.NewRequest(wrong, srv.URL+tc.path, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("%s %s: status %d, want 405", wrong, tc.path, resp.StatusCode)
			}
			if got := resp.Header.Get("Allow"); got != tc.allow {
				t.Fatalf("%s %s: Allow %q, want %q", wrong, tc.path, got, tc.allow)
			}
		})
	}
}

// TestMetricsEndpoint drives traffic through the instrumented pipeline and
// checks the exposition carries the expected families with sane values.
func TestMetricsEndpoint(t *testing.T) {
	srv, samples := metricsServer(t)

	var body bytes.Buffer
	if err := samples[0].Plan.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	raw := body.Bytes()
	for i := 0; i < 3; i++ { // 1 miss + 2 body-cache hits
		resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %d", resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)

	for _, want := range []string{
		`dace_http_requests_total{endpoint="/predict",code="2xx"} 3`,
		`dace_http_request_seconds_bucket{endpoint="/predict",le="+Inf"} 3`,
		`dace_http_request_seconds_count{endpoint="/predict"} 3`,
		`dace_cache_hits_total{cache="body"} 2`,
		`dace_cache_misses_total{cache="body"} 1`,
		`# TYPE dace_http_request_seconds histogram`,
		`# TYPE dace_batch_queue_depth gauge`,
		`dace_batch_queue_capacity 32`,
		`dace_batches_total 1`,
		`dace_batched_requests_total 1`,
		`dace_batch_rejected_total 0`,
		// The lone miss found a free slot: it never waited, so it is not in
		// the wait histogram.
		`dace_batch_wait_seconds_count 0`,
		`dace_feedback_observations_total 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(text, "dace_batch_size") {
		t.Error("exposition still carries dace_batch_size: every batch is one request now")
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}

// TestInstrumentedPredictAllocs holds the instrumented /predict path to the
// same allocation budget as the bare one: the wrapper is pooled and the
// instruments are atomics, so telemetry must not show up in the allocation
// profile.
func TestInstrumentedPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	base, samples := trainedServer(t)
	s := NewWithConfig(base.Model(), Config{Metrics: telemetry.NewRegistry()})
	defer s.Close()
	h := s.Handler()

	var body bytes.Buffer
	if err := samples[0].Plan.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	raw := body.Bytes()
	do := func() {
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(raw))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	do() // warm pools
	if avg := testing.AllocsPerRun(100, do); avg > 400 {
		t.Fatalf("instrumented /predict allocates %.0f/op, want <= 400", avg)
	}
}
