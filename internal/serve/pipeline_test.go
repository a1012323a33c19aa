package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dace/internal/core"
	"dace/internal/dataset"
	"dace/internal/executor"
	"dace/internal/plan"
	"dace/internal/schema"
	"dace/internal/servecache"
	"dace/internal/telemetry"
	"dace/internal/wire"
)

// pipelineConfig enables every stage at test-friendly sizes.
func pipelineConfig() Config {
	return Config{
		CacheSize:  1024,
		QueueDepth: 256,
	}
}

// trainedModel is trainedServer's model half, for tests that need several
// servers around one model.
func trainedModel(t testing.TB) (*core.Model, []dataset.Sample) {
	t.Helper()
	samples, err := dataset.ComplexWorkload(schema.BenchmarkDB("airline"), 80, executor.M1())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.DK, cfg.DV = 32, 32
	cfg.Hidden = []int{32, 16, 1}
	cfg.LoRARanks = []int{8, 4, 2}
	cfg.Epochs = 8
	return core.Train(dataset.Plans(samples), cfg), samples
}

func planBody(t testing.TB, p *plan.Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postPredict(t *testing.T, h http.Handler, body []byte) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// TestPipelineBitwiseEqualUnderConcurrency is the determinism contract:
// with caching, coalescing, and the admission stage all enabled, 64 concurrent
// clients posting a mix of repeated and distinct plans must receive
// byte-for-byte the responses an uncached server produces.
func TestPipelineBitwiseEqualUnderConcurrency(t *testing.T) {
	m, samples := trainedModel(t)
	plain := New(m)
	s := NewWithConfig(m, pipelineConfig())
	defer s.Close()
	h := s.Handler()

	const nPlans = 24
	bodies := make([][]byte, nPlans)
	want := make([][]byte, nPlans)
	for i := 0; i < nPlans; i++ {
		bodies[i] = planBody(t, samples[i].Plan)
		code, resp := postPredict(t, plain.Handler(), bodies[i])
		if code != http.StatusOK {
			t.Fatalf("plain server status %d", code)
		}
		want[i] = resp
	}

	const clients, reqsPerClient = 64, 30
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < reqsPerClient; r++ {
				// 2/3 of traffic hammers a hot plan, the rest walks the set —
				// exercising hits, coalesced misses, and slot waits at once.
				i := (c + r) % nPlans
				if r%3 != 0 {
					i = c % 4
				}
				code, resp := postPredict(t, h, bodies[i])
				if code != http.StatusOK {
					errs <- fmt.Errorf("client %d req %d: status %d", c, r, code)
					return
				}
				if !bytes.Equal(resp, want[i]) {
					errs <- fmt.Errorf("client %d req %d: cached response diverged from uncached baseline", c, r)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.preds.Stats()
	if st.Hits == 0 && s.bodies.Stats().Hits == 0 {
		t.Fatal("concurrent repeated workload produced zero cache hits")
	}
}

// TestCoalescingSingleCompute checks the singleflight layer end to end:
// concurrent identical requests must resolve to one model computation.
func TestCoalescingSingleCompute(t *testing.T) {
	m, samples := trainedModel(t)
	s := NewWithConfig(m, Config{CacheSize: 64})
	defer s.Close()
	h := s.Handler()
	body := planBody(t, samples[0].Plan)

	const clients = 32
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, _ := postPredict(t, h, body); code != http.StatusOK {
				t.Errorf("status %d", code)
			}
		}()
	}
	wg.Wait()

	// Identical wire bytes coalesce in the body cache; the plan cache saw at
	// most the one flight leader. Between the two layers every request but
	// one must have been answered without its own forward pass.
	bs, ps := s.bodies.Stats(), s.preds.Stats()
	if bs.Misses != 1 {
		t.Fatalf("body cache misses = %d, want 1 (singleflight)", bs.Misses)
	}
	if bs.Hits+bs.Coalesced != clients-1 {
		t.Fatalf("hits+coalesced = %d, want %d", bs.Hits+bs.Coalesced, clients-1)
	}
	if ps.Misses > 1 {
		t.Fatalf("plan cache misses = %d, want <= 1", ps.Misses)
	}
}

// stageProbe replaces the admission stage's predict hook: every forward
// records itself, then parks until the test lets it through, so a test can
// hold the slots busy and watch what the stage does behind them.
type stageProbe struct {
	gate chan struct{} // one receive per forward; close it to open the floodgate

	mu       sync.Mutex
	cur, max int              // forwards inside the hook now / at most
	order    []*plan.FlatPlan // plans in the order their forwards started
}

// probeStage builds a cache-less server, sets Workers after construction (as
// daced does) and installs a probe.
func probeStage(m *core.Model, workers, depth int) (*Server, *stageProbe) {
	s := NewWithConfig(m, Config{QueueDepth: depth})
	s.Workers = workers
	return s, installProbe(s)
}

// installProbe puts a stageProbe in s's admission stage.
func installProbe(s *Server) *stageProbe {
	p := &stageProbe{gate: make(chan struct{})}
	s.bat.predict = func(dst []float64, m *core.Model, f *plan.FlatPlan) []float64 {
		p.mu.Lock()
		p.cur++
		if p.cur > p.max {
			p.max = p.cur
		}
		p.order = append(p.order, f)
		p.mu.Unlock()
		<-p.gate
		p.mu.Lock()
		p.cur--
		p.mu.Unlock()
		return predictFlat(dst, m, f)
	}
	return p
}

func (p *stageProbe) running() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cur
}

// submitAsync submits f from its own goroutine and returns where the error
// will arrive.
func submitAsync(b *batcher, f *plan.FlatPlan) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := b.submit(nil, f, b.srv.Model())
		done <- err
	}()
	return done
}

// flatPlans flattens the first n sample plans, each into its own FlatPlan.
func flatPlans(samples []dataset.Sample, n int) []*plan.FlatPlan {
	out := make([]*plan.FlatPlan, n)
	for i := range out {
		out[i] = new(plan.FlatPlan).FromTree(samples[i].Plan)
	}
	return out
}

// TestAdmissionBoundsForwardsToWorkers drives concurrent distinct plans
// through a cache-less server: never more than Workers
// forwards may run at once, the rest wait, and every response must match the
// plain server byte for byte.
func TestAdmissionBoundsForwardsToWorkers(t *testing.T) {
	m, samples := trainedModel(t)
	plain := New(m)
	const workers, n = 3, 48
	s, probe := probeStage(m, workers, 256)
	defer s.Close()
	h := s.Handler()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := planBody(t, samples[i%len(samples)].Plan)
			code, resp := postPredict(t, h, body)
			if code != http.StatusOK {
				t.Errorf("req %d: status %d", i, code)
				return
			}
			_, want := postPredict(t, plain.Handler(), body)
			if !bytes.Equal(resp, want) {
				t.Errorf("req %d: admitted response diverged from direct inference", i)
			}
		}(i)
	}
	// Every request has arrived: the slots are full and the rest are parked.
	waitFor(t, func() bool { return probe.running() == workers && s.bat.stats().Depth == n-workers })
	close(probe.gate)
	wg.Wait()

	if probe.max != workers {
		t.Fatalf("at most %d forwards ran at once, want exactly Workers = %d", probe.max, workers)
	}
	qs := s.bat.stats()
	if qs.Requests != n || qs.Batches != n {
		t.Fatalf("stage admitted %d requests in %d batches, want %d each", qs.Requests, qs.Batches, n)
	}
	if qs.Depth != 0 || qs.DepthHWM != n-workers || qs.Rejected != 0 {
		t.Fatalf("after the run: %+v, want depth 0, hwm %d, rejected 0", qs, n-workers)
	}
}

// TestZeroConfigRunsTheAdmissionStage: there is one pipeline, and the zero
// Config is it without the caches — concurrent misses on New's server cross
// the admission stage, never more than Workers forwards at once, behind the
// default wait bound of 4096.
func TestZeroConfigRunsTheAdmissionStage(t *testing.T) {
	m, samples := trainedModel(t)
	const workers, n = 2, 16
	s := New(m)
	defer s.Close()
	s.Workers = workers
	probe := installProbe(s)
	h := s.Handler()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if code, _ := postPredict(t, h, planBody(t, samples[i].Plan)); code != http.StatusOK {
				t.Errorf("req %d: status %d", i, code)
			}
		}(i)
	}
	waitFor(t, func() bool { return probe.running() == workers && s.bat.stats().Depth == n-workers })
	close(probe.gate)
	wg.Wait()
	if probe.max > workers {
		t.Fatalf("%d forwards ran at once, want at most Workers = %d", probe.max, workers)
	}

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var health Health
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Queue == nil || health.Queue.Capacity != 4096 || health.Queue.Requests != n {
		t.Fatalf("healthz queue %+v, want capacity 4096 and %d requests", health.Queue, n)
	}
}

// TestAdmissionFIFOHandoff pins the wait order: with one slot held, waiters
// are admitted strictly in arrival order, one per finishing forward.
func TestAdmissionFIFOHandoff(t *testing.T) {
	m, samples := trainedModel(t)
	s, probe := probeStage(m, 1, 16)
	defer s.Close()
	b := s.bat
	b.waitHist = telemetry.NewRegistry().Histogram("wait_seconds", "", telemetry.LatencyBounds())

	plans := flatPlans(samples, 5)
	done := make([]<-chan error, len(plans))
	for i, f := range plans {
		done[i] = submitAsync(b, f)
		// Arrival order is only defined once the previous submit is in: the
		// first holds the slot, each later one is the newest waiter.
		waitFor(t, func() bool { return probe.running() == 1 && b.stats().Depth == i })
	}
	for i := range plans {
		probe.gate <- struct{}{}
		if err := <-done[i]; err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		// Handing the slot over never lets a second forward in.
		if i < len(plans)-1 {
			waitFor(t, func() bool { return probe.running() == 1 })
		}
	}
	if probe.max != 1 {
		t.Fatalf("%d forwards overlapped on one slot", probe.max)
	}
	for i, f := range probe.order {
		if f != plans[i] {
			t.Fatalf("forward %d ran plan %p, want arrival order (%p)", i, f, plans[i])
		}
	}
	// The first request found the slot free; only the four behind it waited.
	if n := b.waitHist.Snapshot().Count; n != uint64(len(plans)-1) {
		t.Fatalf("wait histogram observed %d requests, want the %d that waited", n, len(plans)-1)
	}
}

// TestQueueFullBackpressure exercises the 503 path without relying on
// timing: one forward holds the only slot, QueueDepth requests wait, and the
// next submit must be rejected immediately rather than queued.
func TestQueueFullBackpressure(t *testing.T) {
	m, samples := trainedModel(t)
	const depth = 2
	s, probe := probeStage(m, 1, depth)
	b := s.bat

	plans := flatPlans(samples, depth+2)
	var done []<-chan error
	for i := 0; i <= depth; i++ {
		done = append(done, submitAsync(b, plans[i]))
		waitFor(t, func() bool { return probe.running() == 1 && b.stats().Depth == i })
	}

	if _, err := b.submit(nil, plans[depth+1], b.srv.Model()); err != errQueueFull {
		t.Fatalf("overflow submit: err = %v, want errQueueFull", err)
	}
	if qs := b.stats(); qs.Rejected != 1 || qs.Depth != depth || qs.Capacity != depth {
		t.Fatalf("after overflow: %+v, want rejected 1, depth = capacity = %d", qs, depth)
	}

	// The holder and both waiters must complete, and a post-close submit
	// must fail closed, not hang.
	close(probe.gate)
	for i, d := range done {
		if err := <-d; err != nil {
			t.Fatalf("admitted submit %d failed: %v", i, err)
		}
	}
	b.close()
	if _, err := b.submit(nil, plans[0], b.srv.Model()); err != errClosed {
		t.Fatalf("post-close submit: err = %v, want errClosed", err)
	}
	if got := b.stats().Rejected; got != 2 {
		t.Fatalf("rejected = %d, want 2 (one overflow, one post-close)", got)
	}
}

// TestAdmissionPanicFailsOneRequest: a panicking forward fails its own
// request only, gives its slot to the waiter behind it, and leaves the stage
// serving.
func TestAdmissionPanicFailsOneRequest(t *testing.T) {
	m, samples := trainedModel(t)
	s, probe := probeStage(m, 1, 16)
	defer s.Close()
	b := s.bat
	plans := flatPlans(samples, 3)
	gated := b.predict
	b.predict = func(dst []float64, m *core.Model, f *plan.FlatPlan) []float64 {
		preds := gated(dst, m, f)
		if f == plans[0] {
			panic("bad forward")
		}
		return preds
	}

	bad := submitAsync(b, plans[0])
	waitFor(t, func() bool { return probe.running() == 1 })
	behind := submitAsync(b, plans[1])
	waitFor(t, func() bool { return b.stats().Depth == 1 })
	close(probe.gate)

	if err := <-bad; err == nil || !strings.Contains(err.Error(), "panicked: bad forward") {
		t.Fatalf("panicking forward: err = %v, want the panic reported", err)
	}
	if err := <-behind; err != nil {
		t.Fatalf("waiter behind the panic: %v", err)
	}
	// The slot came back: with one slot and nobody waiting, this would park
	// forever had the panic leaked it.
	got, err := b.submit(nil, plans[2], b.srv.Model())
	if err != nil {
		t.Fatalf("submit after the panic: %v", err)
	}
	if want := predictFlat(nil, m, plans[2]); len(got) != len(want) || got[0] != want[0] {
		t.Fatal("prediction after the panic diverged from direct inference")
	}
	b.mu.Lock()
	busy := b.busy
	b.mu.Unlock()
	if busy != 0 {
		t.Fatalf("%d slots still held on an idle stage", busy)
	}
}

// TestBatchPanicFailsOneBatch: /predict/batch fans its forwards out through
// nn.ParallelFor, so with Workers > 1 a panicking forward used to die on a
// worker goroutine, where nothing can recover it, and take the process with
// it. The batch must answer 500, cache nothing, and leave the server serving
// — for one worker and for several, with every forward of the batch
// panicking (several panics race to be the one reported) and, behind the
// plan cache, with only the batch's three misses reaching a forward.
func TestBatchPanicFailsOneBatch(t *testing.T) {
	m, samples := trainedModel(t)
	batchOf := func(n int) []byte {
		var body bytes.Buffer
		body.WriteString("[")
		for i := 0; i < n; i++ {
			if i > 0 {
				body.WriteString(",")
			}
			body.Write(planBody(t, samples[i].Plan))
		}
		body.WriteString("]")
		return body.Bytes()
	}
	_, want := postWire(t, New(m).Handler(), "/predict/batch", "application/json", batchOf(8))

	// A weight matrix too short for its shape: every forward dies on a slice
	// bound inside the first MLP layer's product.
	w := m.MLP[0].W.Value
	intact := w.Data
	for _, cfg := range []Config{{}, {CacheSize: 256}} {
		for _, workers := range []int{1, 2, 4} {
			s := NewWithConfig(m, cfg)
			s.Workers = workers
			h := s.Handler()
			if code, _ := postWire(t, h, "/predict/batch", "application/json", batchOf(5)); code != http.StatusOK {
				t.Fatalf("workers=%d: warm-up batch: status %d", workers, code)
			}

			w.Data = intact[:len(intact)/2]
			code, body := postWire(t, h, "/predict/batch", "application/json", batchOf(8))
			w.Data = intact
			if code != http.StatusInternalServerError || !strings.Contains(string(body), "inference panicked") {
				t.Fatalf("workers=%d: batch whose forwards panic: status %d, body %q; want 500 naming the panic", workers, code, body)
			}
			if s.preds != nil && s.preds.Stats().Entries != 5 {
				t.Fatalf("workers=%d: plan cache holds %d entries after the failed batch, want the warm-up's 5", workers, s.preds.Stats().Entries)
			}

			code, got := postWire(t, h, "/predict/batch", "application/json", batchOf(8))
			if code != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("workers=%d: batch after the panic: status %d, diverged = %v", workers, code, !bytes.Equal(got, want))
			}
			s.Close()
		}
	}
}

// TestSubmitIdleAllocs is the no-contention guard: on an idle stage submit
// takes a slot, runs the forward on the caller's goroutine and returns —
// the only allocation is the prediction slice it hands back. Telemetry is on
// so a timestamp or a waiter sneaking onto the uncontended path would show.
func TestSubmitIdleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	m, samples := trainedModel(t)
	s := NewWithConfig(m, Config{Metrics: telemetry.NewRegistry()})
	defer s.Close()
	f := new(plan.FlatPlan).FromTree(samples[0].Plan)
	submit := func() {
		if _, err := s.bat.submit(nil, f, m); err != nil {
			t.Fatal(err)
		}
	}
	submit() // warm the model's scratch pools
	if avg := testing.AllocsPerRun(200, submit); avg != 1 {
		t.Fatalf("idle submit allocates %.0f/op, want 1 (the returned predictions)", avg)
	}
	if n := s.bat.waitHist.Snapshot().Count; n != 0 {
		t.Fatalf("dace_batch_wait_seconds observed %d uncontended requests, want 0", n)
	}
}

// TestQueueFullHTTP503 checks the HTTP mapping: a rejected request surfaces
// as 503 with a Retry-After header (here via shutdown, the deterministic
// rejection trigger).
func TestQueueFullHTTP503(t *testing.T) {
	m, samples := trainedModel(t)
	s := NewWithConfig(m, Config{QueueDepth: 4})
	h := s.Handler()
	body := planBody(t, samples[0].Plan)
	if code, _ := postPredict(t, h, body); code != http.StatusOK {
		t.Fatalf("pre-close status %d", code)
	}
	s.Close()
	req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-close status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}
}

// TestSetModelInvalidatesCaches checks cache coherence across a hot swap:
// the first request after the swap must miss both caches and later
// responses must come from the new model, even for a plan that was cached
// under the old one — including swaps racing in-flight traffic.
func TestSetModelInvalidatesCaches(t *testing.T) {
	m, samples := trainedModel(t)
	s := NewWithConfig(m, pipelineConfig())
	defer s.Close()
	h := s.Handler()
	body := planBody(t, samples[0].Plan)

	code, oldResp := postPredict(t, h, body)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if code, again := postPredict(t, h, body); code != http.StatusOK || !bytes.Equal(again, oldResp) {
		t.Fatal("cached response unstable before the swap")
	}

	// Swap mid-flight: Publish (the same weights — fine-tuning a live model
	// in place would race inference) while traffic is in the air. Every
	// response must stay valid.
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				if code, _ := postPredict(t, h, planBody(t, samples[(c+r)%10].Plan)); code != http.StatusOK {
					t.Errorf("in-flight request failed with %d", code)
				}
			}
		}(c)
	}
	s.Publish(m, 0)
	wg.Wait()

	// Now mutate the weights (fine-tune) with traffic quiesced and swap:
	// the stale cache entries from before must not survive.
	m.FineTuneLoRA(dataset.Plans(samples[:40]), 2e-3, 2)
	s.Publish(m, 0)

	want := New(m)
	_, fresh := postPredict(t, want.Handler(), body)
	pre := [2]servecache.Stats{s.preds.Stats(), s.bodies.Stats()}
	code, got := postPredict(t, h, body)
	if code != http.StatusOK {
		t.Fatalf("post-swap status %d", code)
	}
	for i, post := range [2]servecache.Stats{s.preds.Stats(), s.bodies.Stats()} {
		if post.Hits != pre[i].Hits || post.Misses != pre[i].Misses+1 {
			t.Fatalf("first post-swap request: cache %d went hits %d→%d misses %d→%d, want one miss",
				i, pre[i].Hits, post.Hits, pre[i].Misses, post.Misses)
		}
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("post-swap response does not match the new model")
	}
	if bytes.Equal(got, oldResp) {
		t.Fatal("stale pre-swap prediction served after the swap")
	}
}

// TestBodyCaps covers the 413 paths on both endpoints.
func TestBodyCaps(t *testing.T) {
	m, samples := trainedModel(t)
	s := New(m)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// /predict: pad a valid document past MaxPredictBody via the sql field.
	pad := strings.Repeat("x", int(wire.MaxPredictBody)+1024)
	big := []byte(`{"sql":"` + pad + `","root":{"type":0,"est_rows":1,"est_cost":1}}`)
	resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("/predict oversized body: status %d, want 413", resp.StatusCode)
	}

	// /predict/batch: shrink the cap rather than allocating 64MB in a test.
	defer func(old int64) { wire.MaxBatchBody = old }(wire.MaxBatchBody)
	wire.MaxBatchBody = 4096
	var batch bytes.Buffer
	batch.WriteString("[")
	for i := 0; i < 64; i++ {
		if i > 0 {
			batch.WriteString(",")
		}
		batch.Write(planBody(t, samples[i%8].Plan))
	}
	batch.WriteString("]")
	if int64(batch.Len()) <= wire.MaxBatchBody {
		t.Fatal("test batch not oversized")
	}
	resp2, err := http.Post(srv.URL+"/predict/batch", "application/json", &batch)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("/predict/batch oversized body: status %d, want 413", resp2.StatusCode)
	}

	// A normal-sized request still succeeds with the caps in place.
	resp3, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(planBody(t, samples[0].Plan)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("normal body after caps: status %d", resp3.StatusCode)
	}
}

// TestBatchEndpointDedupes checks the /predict/batch cache integration: a
// batch of repeated plans runs few forward passes and matches the plain
// server bit for bit.
func TestBatchEndpointDedupes(t *testing.T) {
	m, samples := trainedModel(t)
	plain := New(m)
	s := NewWithConfig(m, Config{CacheSize: 256})
	defer s.Close()

	const n = 24
	var body bytes.Buffer
	body.WriteString("[")
	for i := 0; i < n; i++ {
		if i > 0 {
			body.WriteString(",")
		}
		body.Write(planBody(t, samples[i%3].Plan)) // only 3 distinct plans
	}
	body.WriteString("]")
	post := func(h http.Handler) (int, []byte) {
		req := httptest.NewRequest(http.MethodPost, "/predict/batch", bytes.NewReader(body.Bytes()))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	code, got := post(s.Handler())
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if _, want := post(plain.Handler()); !bytes.Equal(got, want) {
		t.Fatal("deduplicated batch response diverged from plain batch")
	}
	// Intra-batch dedupe: only the 3 distinct fingerprints were computed and
	// inserted (every lookup missed, but duplicates shared one forward pass).
	st := s.preds.Stats()
	if st.Entries != 3 {
		t.Fatalf("plan cache entries = %d, want 3 (intra-batch dedupe)", st.Entries)
	}
	// A second identical batch is served entirely from cache: hits for every
	// entry, no new misses.
	post(s.Handler())
	st2 := s.preds.Stats()
	if st2.Misses != st.Misses || st2.Hits != st.Hits+n {
		t.Fatalf("repeat batch: stats %+v -> %+v, want %d new hits and no new misses", st, st2, n)
	}
}

// TestHealthReportsPipelineStats checks that /healthz surfaces cache and
// queue counters, and that a server without caches omits the cache sections
// but still reports the admission stage every server runs.
func TestHealthReportsPipelineStats(t *testing.T) {
	m, samples := trainedModel(t)
	s := NewWithConfig(m, pipelineConfig())
	defer s.Close()
	h := s.Handler()
	postPredict(t, h, planBody(t, samples[0].Plan))
	postPredict(t, h, planBody(t, samples[0].Plan))

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var health Health
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.PlanCache == nil || health.BodyCache == nil || health.Queue == nil {
		t.Fatalf("pipeline stats missing from health: %+v", health)
	}
	if health.BodyCache.Hits == 0 {
		t.Fatal("repeated request did not register a body-cache hit")
	}
	if health.Queue.Capacity != 256 {
		t.Fatalf("queue stats %+v do not reflect the config", *health.Queue)
	}

	// The cache-less server must omit the cache sections, not the queue.
	plain := New(m)
	rec2 := httptest.NewRecorder()
	plain.Handler().ServeHTTP(rec2, req)
	if bytes.Contains(rec2.Body.Bytes(), []byte("plan_cache")) ||
		bytes.Contains(rec2.Body.Bytes(), []byte("body_cache")) {
		t.Fatal("cache-less health must omit the cache sections")
	}
	if !bytes.Contains(rec2.Body.Bytes(), []byte(`"queue"`)) {
		t.Fatal("cache-less health must still report the admission stage")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
