package loadgen

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// slowTarget is a capacity-1 server with a fixed service time: the
// textbook coordinated-omission victim. A closed-loop client measures
// ~serviceTime per request because it politely waits its turn before
// *starting* the clock; an open-loop runner above 1/serviceTime QPS sees
// the queue it actually built.
type slowTarget struct {
	mu      sync.Mutex
	service time.Duration
}

func (s *slowTarget) Do(req *Request) (Response, error) {
	s.mu.Lock()
	time.Sleep(s.service)
	s.mu.Unlock()
	return Response{Status: http.StatusOK}, nil
}

func oneRequest(i int64) *Request {
	return &Request{Body: []byte(`{}`), ContentType: "application/json"}
}

// TestCoordinatedOmission is the acceptance test for the open-loop
// design: at an offered rate above saturation, the open-loop P99
// (intended-start→completion) must be at least 5x the closed-loop P99 on
// the same saturated target, because the closed-loop harness suppresses
// exactly the samples that would have recorded the queueing delay.
func TestCoordinatedOmission(t *testing.T) {
	const service = 2 * time.Millisecond // capacity ~500 qps

	closed := ClosedLoop(&slowTarget{service: service}, oneRequest, 2, 300)
	if closed.OK != 300 {
		t.Fatalf("closed loop: ok=%d want 300", closed.OK)
	}
	closedP99 := closed.Hist.Quantile(0.99)

	open := Run(Options{
		Target:      &slowTarget{service: service},
		Schedule:    Constant{QPS: 2000}, // 4x saturation
		Duration:    1200 * time.Millisecond,
		NewRequest:  oneRequest,
		MaxInflight: 512,
	})
	if open.OK == 0 {
		t.Fatalf("open loop completed nothing: %+v", open.Counts)
	}
	openP99 := open.Hist.Quantile(0.99)

	t.Logf("closed P99 %.1fms (ok=%d), open P99 %.1fms (offered=%d ok=%d dropped=%d hwm=%d)",
		closedP99*1e3, closed.OK, openP99*1e3, open.Offered, open.OK, open.Dropped, open.InflightHWM)

	// The closed loop should report roughly the service time; generous
	// upper bound for noisy CI machines.
	if closedP99 > 20*service.Seconds() {
		t.Errorf("closed-loop P99 %.1fms implausibly high for %.1fms service time",
			closedP99*1e3, service.Seconds()*1e3)
	}
	if openP99 < 5*closedP99 {
		t.Errorf("open-loop P99 %.3fms < 5x closed-loop P99 %.3fms: coordinated omission not surfaced",
			openP99*1e3, closedP99*1e3)
	}
	// Above saturation with a bounded window the runner must shed load
	// rather than stall the arrival clock.
	if open.Dropped == 0 {
		t.Errorf("expected shed arrivals at 4x saturation with MaxInflight=512, got none")
	}
	if got := open.Sent + open.Dropped; got != open.Offered {
		t.Errorf("accounting: sent %d + dropped %d != offered %d", open.Sent, open.Dropped, open.Offered)
	}
}

// fastTarget completes instantly with a fixed status.
type fastTarget struct {
	status int
}

func (f *fastTarget) Do(req *Request) (Response, error) {
	return Response{Status: f.status}, nil
}

func TestOutcomeClassification(t *testing.T) {
	run := func(status int) Result {
		return Run(Options{
			Target:     &fastTarget{status: status},
			Schedule:   Constant{QPS: 1000},
			Duration:   100 * time.Millisecond,
			NewRequest: oneRequest,
		})
	}
	if r := run(http.StatusOK); r.OK == 0 || r.Backpressured != 0 || r.Errors != 0 || int64(r.Hist.Count) != r.OK {
		t.Errorf("200s: %+v hist=%d", r.Counts, r.Hist.Count)
	}
	if r := run(http.StatusServiceUnavailable); r.Backpressured == 0 || r.OK != 0 || r.Hist.Count != 0 {
		t.Errorf("503s must count as backpressure and stay out of the latency histogram: %+v hist=%d",
			r.Counts, r.Hist.Count)
	}
	if r := run(http.StatusInternalServerError); r.Errors == 0 || r.OK != 0 {
		t.Errorf("500s must count as errors: %+v", r.Counts)
	}
}

func TestOfferedMatchesSchedule(t *testing.T) {
	r := Run(Options{
		Target:     &fastTarget{status: 200},
		Schedule:   Constant{QPS: 500},
		Duration:   time.Second,
		NewRequest: oneRequest,
	})
	// Arrival count is a property of the schedule alone: 501 arrivals have
	// At(i) <= 1s at 500 qps (i=0..500).
	if r.Offered != 501 {
		t.Errorf("offered %d, want 501 — the schedule, not the server, owns the arrival count", r.Offered)
	}
}

func TestHandlerTarget(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Dace-Tenant") == "tenant-7" && r.URL.Path == "/predict" {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"cost":1}`))
	})
	ht := &HandlerTarget{Handler: h}

	resp, err := ht.Do(&Request{Body: []byte(`{}`), ContentType: "application/json"})
	if err != nil || resp.Status != http.StatusOK {
		t.Fatalf("plain request: %v status=%d", err, resp.Status)
	}
	resp, err = ht.Do(&Request{Body: []byte(`{}`), ContentType: "application/json", Tenant: "tenant-7"})
	if err != nil || resp.Status != http.StatusServiceUnavailable {
		t.Fatalf("tenant request: %v status=%d", err, resp.Status)
	}
}

func TestHTTPTarget(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/predict" {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	ht, err := NewHTTPTarget(srv.URL+"/predict", 8, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ht.Do(&Request{Body: []byte(`{}`), ContentType: "application/json"})
	if err != nil || resp.Status != http.StatusOK {
		t.Fatalf("Do: %v status=%d", err, resp.Status)
	}

	// A server that promises 100 bytes, sends 11 and closes: the status line
	// arrived, the response did not — a transport error, not an OK.
	truncating := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"cost\": 1.")
		buf.Flush()
	}))
	defer truncating.Close()
	ht, err = NewHTTPTarget(truncating.URL+"/predict", 8, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := ht.Do(&Request{Body: []byte(`{}`), ContentType: "application/json"}); err == nil || isTimeout(err) {
		t.Errorf("truncated body: status=%d err=%v, want a non-timeout transport error", resp.Status, err)
	}
	r := Run(Options{Target: ht, Schedule: Constant{QPS: 50}, Duration: 100 * time.Millisecond, NewRequest: oneRequest})
	if r.Sent == 0 || r.OK != 0 || r.Errors != r.Sent {
		t.Errorf("truncated bodies must count as errors: %+v", r.Counts)
	}
}

// ClosedLoop measures the same target the way benchmark/'s serve workloads
// do: `clients` goroutines in a tight request/response loop, `total`
// requests, latency measured from each request's *send* (not from a
// schedule). It exists as the comparison arm for coordinated-omission
// sensitivity: at saturation its percentiles stay flattering — every stall
// suppresses exactly the requests that would have recorded it — while the
// open-loop runner's percentiles absorb the queueing delay.
func ClosedLoop(target Target, newRequest func(i int64) *Request, clients int, total int64) Result {
	r := NewRunner(Options{})
	r.offered.Store(total)
	r.sent.Store(total)
	r.hwm.Store(int64(clients))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < total; i = next.Add(1) - 1 {
				t0 := time.Now()
				resp, err := target.Do(newRequest(i))
				r.record(resp, err, t0)
			}
		}()
	}
	wg.Wait()
	return r.result(time.Since(start))
}
