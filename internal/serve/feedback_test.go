package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dace/internal/adapt"
	"dace/internal/core"
	"dace/internal/dataset"
	"dace/internal/executor"
	"dace/internal/feedback"
	"dace/internal/loadgen"
	"dace/internal/metrics"
	"dace/internal/plan"
	"dace/internal/schema"
)

// recordingSink is a Domain that captures Observe calls; the embedded nil
// interface supplies the methods /feedback never reaches.
type recordingSink struct {
	Domain
	mu  sync.Mutex
	obs []feedback.Sample
}

// Observe copies the plan, as every Domain must: it aliases the request's
// decode scratch.
func (r *recordingSink) Observe(f *plan.FlatPlan, actualMS, predictedMS float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs = append(r.obs, feedback.Sample{Plan: f.Clone(), ActualMS: actualMS, PredictedMS: predictedMS})
}

// flat is p as the request edge hands it to a Domain.
func flat(p *plan.Plan) *plan.FlatPlan { return new(plan.FlatPlan).FromTree(p) }

func (r *recordingSink) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.obs)
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func feedbackBody(t *testing.T, p *plan.Plan, actualMS float64) []byte {
	t.Helper()
	var pb bytes.Buffer
	if err := p.WriteJSON(&pb); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(map[string]any{"plan": json.RawMessage(pb.Bytes()), "actual_ms": actualMS})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestFeedbackEndpointAbsentWithoutSink(t *testing.T) {
	s, samples := trainedServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/feedback", "application/json",
		bytes.NewReader(feedbackBody(t, samples[0].Plan, 5)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("feedback without a sink: status %d, want 404", resp.StatusCode)
	}
}

func TestFeedbackEndpointValidation(t *testing.T) {
	s, samples := trainedServer(t)
	sink := &recordingSink{}
	s.Base = sink
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	p := samples[0].Plan

	for name, tc := range map[string]struct {
		body   string
		status int
	}{
		"not json":           {"{", http.StatusBadRequest},
		"no plan":            {`{"actual_ms": 5}`, http.StatusBadRequest},
		"zero actual":        {string(feedbackBody(t, p, 0)), http.StatusBadRequest},
		"negative actual":    {string(feedbackBody(t, p, -3)), http.StatusBadRequest},
		"overflowing actual": {`{"plan": {"root": {"type": 0}}, "actual_ms": 1e999}`, http.StatusBadRequest},
		"negative predicted": {`{"plan": {"root": {"type": 0}}, "actual_ms": 5, "predicted_ms": -1}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+"/feedback", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", name, resp.StatusCode, tc.status)
		}
	}
	// The embedded plan goes through the decoder /predict uses, so a bad one
	// is refused with /predict's status and /predict's bytes.
	post := func(url, ctype, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url, ctype, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	for name, tc := range map[string]struct{ query, plan string }{
		"nan-ish feature":   {"", `{"root": {"type": 0, "est_rows": 1e999}}`},
		"rootless plan":     {"", `{"database": "x"}`},
		"unknown operator":  {"", `{"root": {"type": 99, "est_rows": 1, "est_cost": 1}}`},
		"null child":        {"", `{"root": {"type": 0, "children": [null]}}`},
		"duplicate root":    {"", `{"root": {"type": 0}, "root": {"type": 1}}`},
		"pg null child":     {"?format=pg", `[{"Plan": {"Node Type": "Hash Join", "Plans": [null]}}]`},
		"pg not an explain": {"?format=pg", `{"root": {"type": 0}}`},
	} {
		wantStatus, wantBody := post(srv.URL+"/predict"+tc.query, "application/json", tc.plan)
		status, body := post(srv.URL+"/feedback"+tc.query, "application/json", `{"plan": `+tc.plan+`, "actual_ms": 5}`)
		if status != wantStatus || body != wantBody || status != http.StatusBadRequest {
			t.Errorf("%s: /feedback answered %d %q, /predict %d %q", name, status, body, wantStatus, wantBody)
		}
	}
	if sink.count() != 0 {
		t.Fatalf("invalid feedback reached the sink %d times", sink.count())
	}

	// Today's accepted requests stay accepted: the envelope is JSON even
	// under the binary Content-Type, and format=pg carries EXPLAIN output.
	const pgPlan = `[{"Plan": {"Node Type": "Seq Scan", "Total Cost": 1234.5, "Plan Rows": 10000}}]`
	const samePlan = `{"database": "d", "root": {"type": 0, "est_rows": 10000, "est_cost": 1234.5}}`
	for name, tc := range map[string]struct{ query, ctype, plan string }{
		"binary content type": {"", plan.BinaryContentType, samePlan},
		"pg explain":          {"?format=pg&database=d", "application/json", pgPlan},
	} {
		if status, body := post(srv.URL+"/feedback"+tc.query, tc.ctype, `{"plan": `+tc.plan+`, "actual_ms": 5}`); status != http.StatusAccepted {
			t.Fatalf("%s: %d %s, want 202", name, status, body)
		}
	}
	sink.mu.Lock()
	if len(sink.obs) != 2 || sink.obs[0].Plan.Fingerprint != sink.obs[1].Plan.Fingerprint || sink.obs[1].Plan.Database() != "d" {
		t.Fatalf("plan JSON and pg EXPLAIN of one plan reached the sink as %+v", sink.obs)
	}
	sink.obs = nil
	sink.mu.Unlock()

	// A valid observation is accepted, and the server fills predicted_ms
	// from the serving model when the client omits it.
	resp := postJSON(t, srv.URL+"/feedback", json.RawMessage(feedbackBody(t, p, 7.5)))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid feedback: status %d, want 202", resp.StatusCode)
	}
	var ack feedbackResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if !ack.Accepted || ack.PredictedMS <= 0 || ack.QError < 1 {
		t.Fatalf("ack %+v", ack)
	}
	if sink.count() != 1 {
		t.Fatalf("sink saw %d observations, want 1", sink.count())
	}
	sink.mu.Lock()
	got := sink.obs[0]
	sink.mu.Unlock()
	if got.ActualMS != 7.5 || got.PredictedMS != ack.PredictedMS {
		t.Fatalf("sink observation %+v vs ack %+v", got, ack)
	}
	if got.Plan.Fingerprint != p.Fingerprint() {
		t.Fatal("plan identity lost on the way to the sink")
	}
}

func TestFeedbackBodyCap(t *testing.T) {
	s, samples := trainedServer(t)
	s.Base = &recordingSink{}
	old := MaxFeedbackBody
	MaxFeedbackBody = 64
	defer func() { MaxFeedbackBody = old }()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/feedback", "application/json",
		bytes.NewReader(feedbackBody(t, samples[0].Plan, 5)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized feedback: status %d, want 413", resp.StatusCode)
	}
}

// stubAdapter is a Domain with scripted StatusNow/RunOnce responses.
type stubAdapter struct {
	Domain
	status adapt.Status
	out    *adapt.Outcome
	err    error
}

func (a *stubAdapter) StatusNow() adapt.Status          { return a.status }
func (a *stubAdapter) RunOnce() (*adapt.Outcome, error) { return a.out, a.err }

func TestAdaptEndpoints(t *testing.T) {
	s, _ := trainedServer(t)
	ad := &stubAdapter{status: adapt.Status{Runs: 3}, out: &adapt.Outcome{Promoted: true}}
	s.Base = ad
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/adapt/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"runs":3`) {
		t.Fatalf("status endpoint: %d %s", resp.StatusCode, body)
	}

	resp, err = http.Post(srv.URL+"/adapt/trigger", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"promoted":true`) {
		t.Fatalf("trigger: %d %s", resp.StatusCode, body)
	}

	ad.err = adapt.ErrBusy
	resp, err = http.Post(srv.URL+"/adapt/trigger", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("busy trigger: status %d, want 409", resp.StatusCode)
	}

	ad.err = errors.New("not enough samples")
	resp, err = http.Post(srv.URL+"/adapt/trigger", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("refused trigger: status %d, want 422", resp.StatusCode)
	}
}

// TestAdaptationEndToEnd drives the full loop over HTTP: a model trained on
// machine M1 serves an M2 workload, feedback flows through POST /feedback
// into the replay store and durable log, POST /adapt/trigger fine-tunes and
// the gate promotes, and /predict immediately serves the adapted model
// (the swap retired the old cache domain). A second, unpassable-gated controller then
// shows a rejected candidate leaving the serving model and caches alone.
func TestAdaptationEndToEnd(t *testing.T) {
	seed, m2Samples := driftFixture(t)

	s := NewWithConfig(seed, Config{CacheSize: 256})
	dir := t.TempDir()
	log, err := feedback.Open(filepath.Join(dir, "feedback.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	store := feedback.NewStore(512, 1)
	ctl := adapt.New(s, store, log, adapt.Config{
		MinSamples: 50,
		Gate:       0.02,
		LR:         2e-3,
		Epochs:     16,
		ModelDir:   filepath.Join(dir, "models"),
		Seed:       7,
	})
	s.Base = ctl
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// The drifted workload arrives as feedback.
	for _, smp := range m2Samples[:180] {
		resp, err := http.Post(srv.URL+"/feedback", "application/json",
			bytes.NewReader(feedbackBody(t, smp.Plan, smp.Plan.Root.ActualMS)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("feedback rejected with %d", resp.StatusCode)
		}
	}
	var st adapt.Status
	resp, err := http.Get(srv.URL + "/adapt/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Store.Size < 50 {
		t.Fatalf("store holds %d samples after 180 observations", st.Store.Size)
	}

	holdout := dataset.Plans(m2Samples[180:])
	beforeMed := e2eMedian(seed, holdout)

	resp, err = http.Post(srv.URL+"/adapt/trigger", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out adapt.Outcome
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trigger: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Promoted || out.Version != 1 {
		t.Fatalf("adaptation not promoted: %s", body)
	}
	served := s.Model()
	if served == seed {
		t.Fatal("serving model did not swap after promotion")
	}
	// One served version, wherever it is read: the promotion's artifact.
	servedVersions := func() (model ModelStatus, health Health, status adapt.Status) {
		t.Helper()
		for path, doc := range map[string]any{"/model": &model, "/healthz": &health, "/adapt/status": &status} {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(doc)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
		return
	}
	if ms, hs, as := servedVersions(); ms.Version != out.Version || hs.ModelVersion != out.Version || as.ModelVersion != out.Version {
		t.Fatalf("after promoting v%d: /model says %d, /healthz %d, /adapt/status %d",
			out.Version, ms.Version, hs.ModelVersion, as.ModelVersion)
	}
	if afterMed := e2eMedian(served, holdout); afterMed >= beforeMed {
		t.Fatalf("promoted model no better on drifted holdout: %v → %v", beforeMed, afterMed)
	}

	// /predict serves the adapted model: the cached response for a probe
	// plan must differ from the seed model's answer.
	probe := holdout[0]
	var pb bytes.Buffer
	if err := probe.WriteJSON(&pb); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(pb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var pred Prediction
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pred.RootMS == seed.Predict(probe) && pred.RootMS != served.Predict(probe) {
		t.Fatal("stale (pre-swap) prediction served after promotion")
	}
	if pred.RootMS != served.Predict(probe) {
		t.Fatalf("served %v, promoted model says %v", pred.RootMS, served.Predict(probe))
	}

	// The durable log replays every accepted sample.
	n, err := log.Replay(func(feedback.Sample) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 180 {
		t.Fatalf("log replayed %d records, want 180", n)
	}

	// Rejection path: a gate nothing can pass. The serving model pointer
	// and the cached /predict bytes must be untouched by the failed attempt.
	ctl2 := adapt.New(s, store, nil, adapt.Config{
		MinSamples: 50,
		Gate:       0.99,
		LR:         2e-3,
		Epochs:     2,
		Seed:       11,
	})
	s.Base = ctl2
	preAttempt := cacheBytes(t, srv.URL, pb.Bytes())
	resp, err = http.Post(srv.URL+"/adapt/trigger", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Promoted {
		t.Fatalf("99%% gate passed: %s", body)
	}
	if s.Model() != served {
		t.Fatal("rejected candidate replaced the serving model")
	}
	if post := cacheBytes(t, srv.URL, pb.Bytes()); !bytes.Equal(preAttempt, post) {
		t.Fatal("rejected candidate disturbed the response cache")
	}

	// A rollout abort reloads what /model reported: loading the seed back
	// replaces the promoted version, not the start-up one, everywhere at once.
	s.Base = ctl
	resp, err = http.Post(srv.URL+"/model/load?version=0", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var loaded ModelStatus
	err = json.NewDecoder(resp.Body).Decode(&loaded)
	resp.Body.Close()
	if err != nil || loaded.Version != 0 || loaded.Previous == nil || *loaded.Previous != 1 {
		t.Fatalf("/model/load?version=0 after promoting v1: %+v (%v)", loaded, err)
	}
	if ms, hs, as := servedVersions(); ms.Version != 0 || hs.ModelVersion != 0 || as.ModelVersion != 0 || s.Model() != seed {
		t.Fatalf("after loading v0: /model says %d, /healthz %d, /adapt/status %d",
			ms.Version, hs.ModelVersion, as.ModelVersion)
	}
}

// driftFixture is the drift scenario the adaptation tests share: a seed
// model trained on machine M1's latencies and 220 samples of the same
// airline workload executed on M2 — the first 180 arrive as feedback, the
// rest are the holdout the promoted model is judged and probed on.
func driftFixture(t *testing.T) (*core.Model, []dataset.Sample) {
	t.Helper()
	db := schema.BenchmarkDB("airline")
	m1Samples, err := dataset.ComplexWorkload(db, 150, executor.M1())
	if err != nil {
		t.Fatal(err)
	}
	m2Samples, err := dataset.ComplexWorkload(db, 220, executor.M2())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.DK, cfg.DV = 32, 32
	cfg.Hidden = []int{32, 16, 1}
	cfg.LoRARanks = []int{8, 4, 2}
	cfg.Epochs = 12
	return core.Train(dataset.Plans(m1Samples[:120]), cfg), m2Samples
}

// swapProbe sits between the load generator and the server and records
// every distinct /predict answer: which plan, which bytes, and whether the
// request started after the promotion was known to be complete.
type swapProbe struct {
	inner    http.Handler
	planOf   map[string]int // request body → plan index
	promoted atomic.Bool    // set once the controller's attempt has returned

	mu     sync.Mutex
	non200 int
	seen   map[answer]bool
}

type answer struct {
	afterSwap bool
	plan      int
	body      string
}

func (p *swapProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	afterSwap := p.promoted.Load()
	req, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(req))
	rec := httptest.NewRecorder()
	p.inner.ServeHTTP(rec, r)
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
	p.mu.Lock()
	defer p.mu.Unlock()
	if rec.Code != http.StatusOK {
		p.non200++
		return
	}
	p.seen[answer{afterSwap, p.planOf[string(req)], rec.Body.String()}] = true
}

// liveHeap is the live heap after a forced collection — two, because what a
// sync.Pool held survives the first in the pool's victim cache.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDriftSoakPromotion is the drift-soak with its non-timing gates:
// open-loop traffic over the cached pipeline while M2 feedback arrives and
// one adaptation attempt fine-tunes, gates and hot-swaps a candidate, all
// unpaced and at the default GOGC. The swap must cost no failed request and
// must be atomic as clients see it — a response is the incumbent's bytes or
// the promoted model's, and only the latter once the attempt has returned.
// And the heap must come out flat: the live heap after the run may exceed
// the live heap before it (caches already full) by the one-time step a
// promotion costs — the feedback store, a second model and the retired
// cache domain's entries until LRU turns them over, ≈ 230 KB here — and no
// more, whenever the fine-tune happened to finish. The windowed gates
// that do depend on when (the P99 ratio, the heap slope over nine windows)
// are logged, not asserted.
func TestDriftSoakPromotion(t *testing.T) {
	if testing.Short() {
		t.Skip("soak runs for seconds of wall clock")
	}
	seed, m2Samples := driftFixture(t)
	s := NewWithConfig(seed, Config{CacheSize: 256})
	defer s.Close()
	ctl := adapt.New(s, feedback.NewStore(512, 1), nil, adapt.Config{
		MinSamples: 50,
		Gate:       0.02,
		LR:         2e-3,
		Epochs:     4,
		Seed:       7,
	})

	holdout := dataset.Plans(m2Samples[180:])
	probe := &swapProbe{inner: s.Handler(), planOf: map[string]int{}, seen: map[answer]bool{}}
	bodies := make([][]byte, len(holdout))
	for i, p := range holdout {
		bodies[i] = planBody(t, p)
		probe.planOf[string(bodies[i])] = i
	}
	// What a server with no cache and no swap answers for each plan.
	answers := func(m *core.Model) []string {
		h := New(m).Handler()
		out := make([]string, len(bodies))
		for i, b := range bodies {
			code, resp := postPredict(t, h, b)
			if code != http.StatusOK {
				t.Fatalf("plan %d: status %d", i, code)
			}
			out[i] = string(resp)
		}
		return out
	}
	incumbent := answers(seed)
	// Caches filled, so that what the heap gains from here on is the soak's.
	for _, b := range bodies {
		postPredict(t, s.Handler(), b)
	}
	heapBefore := liveHeap()

	var out *adapt.Outcome
	var runErr error
	attempted := make(chan struct{})
	const duration = 3 * time.Second
	res := loadgen.Soak(loadgen.SoakConfig{
		Target:   &loadgen.HandlerTarget{Handler: probe},
		Schedule: loadgen.Constant{QPS: 400},
		Duration: duration,
		Window:   250 * time.Millisecond,
		NewRequest: func(i int64) *loadgen.Request {
			return &loadgen.Request{Body: bodies[int(i)%len(bodies)], ContentType: "application/json"}
		},
		Events: []loadgen.SoakEvent{{
			After: duration / 2,
			Name:  "drift+promote",
			Do: func() error {
				defer close(attempted)
				for _, smp := range m2Samples[:180] {
					ctl.Observe(flat(smp.Plan), smp.Plan.Root.ActualMS, seed.Predict(smp.Plan))
				}
				out, runErr = ctl.RunOnce()
				probe.promoted.Store(runErr == nil && out.Promoted)
				return runErr
			},
		}},
	})
	<-attempted
	if runErr != nil || !out.Promoted {
		t.Fatalf("no promotion under traffic: %+v, %v", out, runErr)
	}
	// The soak may have ended before the attempt did on a slow run; one more
	// pass guarantees every plan is requested after the swap.
	for _, b := range bodies {
		postPredict(t, probe, b)
	}

	for _, g := range res.Gates {
		t.Logf("gate %s: %.3g (limit %.3g): %s", g.Name, g.Value, g.Limit, g.Detail)
		if !g.Passed && g.Name == "errors" {
			t.Errorf("soak gate %s failed: %s", g.Name, g.Detail)
		}
	}
	const stepBudget = 512 << 10
	step := int64(liveHeap()) - int64(heapBefore)
	t.Logf("live heap: %d B before the soak, %+d B after the promotion and %d requests", heapBefore, step, res.Run.Sent)
	if step > stepBudget {
		t.Errorf("live heap grew %d B across the soak, budget %d B", step, stepBudget)
	}
	// Both were live at the first reading and would be garbage at the second.
	runtime.KeepAlive(ctl)
	runtime.KeepAlive(m2Samples)
	r := res.Run
	if probe.non200 != 0 || r.OK != r.Sent || r.Sent == 0 {
		t.Errorf("%d non-200 responses; run %+v", probe.non200, r.Counts)
	}
	promotedAnswers := answers(s.Model())
	sawIncumbent := false
	for a := range probe.seen {
		switch {
		case a.body == promotedAnswers[a.plan]:
		case a.afterSwap:
			t.Errorf("plan %d: a request started after the promotion returned got other bytes (incumbent's: %v): %s",
				a.plan, a.body == incumbent[a.plan], a.body)
		case a.body == incumbent[a.plan]:
			sawIncumbent = true
		default:
			t.Errorf("plan %d: a response is neither the incumbent's nor the promoted model's bytes: %s", a.plan, a.body)
		}
	}
	for i := range bodies {
		if !probe.seen[answer{true, i, promotedAnswers[i]}] {
			t.Errorf("plan %d: never answered by the promoted model after the promotion returned", i)
		}
	}
	if !sawIncumbent {
		t.Error("no request was answered before the promotion; the swap was not under traffic")
	}
}

func e2eMedian(m *core.Model, plans []*plan.Plan) float64 {
	var qs []float64
	for _, p := range plans {
		qs = append(qs, metrics.QError(m.Predict(p), p.Root.ActualMS))
	}
	return metrics.Summarize(qs).Median
}

func cacheBytes(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d", resp.StatusCode)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
