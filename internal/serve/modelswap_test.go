package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"dace/internal/core"
	"dace/internal/plan"
)

// TestConcurrentSetModelPredict races model swaps against the full cached
// predict pipeline — the serving half of a gateway-driven rollout, where
// POST /model/load (one Publish) lands while /predict traffic is in flight.
// Every request must answer 200 with a well-formed body, and under -race
// this exercises the snapshot swap end to end: publishes straddling
// in-flight body-cache computes.
func TestConcurrentSetModelPredict(t *testing.T) {
	m, samples := trainedModel(t)
	s := NewWithConfig(m, Config{CacheSize: 256})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	bodies := make([][]byte, 8)
	for i := range bodies {
		bodies[i] = planBody(t, samples[i].Plan)
	}

	// Two distinguishable models with the same weights, alternating as
	// versions 1 and 2: every swap retires the cache domain, and no reader
	// may ever see one publish's model with the other's version.
	byVersion := map[int]*core.Model{1: m, 2: m.Clone()}
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(2)
	go func() {
		defer swapper.Done()
		for v := 1; ; v = 3 - v {
			select {
			case <-stop:
				return
			default:
			}
			s.Publish(byVersion[v], v)
		}
	}()
	go func() {
		defer swapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got, v := s.Served(); v != 0 && got != byVersion[v] {
				t.Errorf("snapshot pairs version %d with the other version's model", v)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				body := bodies[(seed+i)%len(bodies)]
				resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var pred Prediction
				err = json.NewDecoder(resp.Body).Decode(&pred)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || pred.RootMS <= 0 {
					t.Errorf("status %d err %v root_ms %v", resp.StatusCode, err, pred.RootMS)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
}

// TestBodyCacheDomainSeparation: identical request bytes under different
// Content-Types must never share a cached response. A cached JSON body
// re-sent as binary is a malformed binary frame (400), not a cache hit —
// and vice versa.
func TestBodyCacheDomainSeparation(t *testing.T) {
	m, samples := trainedModel(t)
	s := NewWithConfig(m, Config{CacheSize: 256})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	jsonBody := planBody(t, samples[0].Plan)
	binBody, err := plan.AppendBinary(nil, samples[0].Plan)
	if err != nil {
		t.Fatal(err)
	}

	postCT := func(ct string, body []byte) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/predict", ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Populate both domains.
	if st := postCT("application/json", jsonBody); st != http.StatusOK {
		t.Fatalf("JSON predict: %d", st)
	}
	if st := postCT(plan.BinaryContentType, binBody); st != http.StatusOK {
		t.Fatalf("binary predict: %d", st)
	}
	// Cross the streams: cached bytes under the other Content-Type must be
	// re-validated in their own domain and rejected, never served from the
	// other domain's cache entry.
	for i := 0; i < 2; i++ { // twice: the second pass would hit any wrongly-shared entry
		if st := postCT(plan.BinaryContentType, jsonBody); st != http.StatusBadRequest {
			t.Fatalf("JSON bytes as binary: %d, want 400", st)
		}
		if st := postCT("application/json", binBody); st != http.StatusBadRequest {
			t.Fatalf("binary bytes as JSON: %d, want 400", st)
		}
	}
}
