package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dace/internal/core"
	"dace/internal/dataset"
	"dace/internal/executor"
	"dace/internal/plan"
	"dace/internal/schema"
)

// New builds a server without the prediction caches: every request runs
// its own forward pass, behind the admission stage. It is the uncached
// reference the tests compare cached and tenant-routed answers against.
func New(m *core.Model) *Server { return NewWithConfig(m, Config{}) }

func trainedServer(t *testing.T) (*Server, []dataset.Sample) {
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
	return New(core.Train(dataset.Plans(samples), cfg)), samples
}

func TestPredictEndpoint(t *testing.T) {
	s, samples := trainedServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var body bytes.Buffer
	if err := samples[0].Plan.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/predict", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pred Prediction
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
		t.Fatal(err)
	}
	if pred.RootMS <= 0 {
		t.Fatalf("root prediction %v", pred.RootMS)
	}
	if len(pred.SubPlans) != samples[0].Plan.NodeCount() {
		t.Fatalf("got %d sub-plans, want %d", len(pred.SubPlans), samples[0].Plan.NodeCount())
	}
	if pred.SubPlans[0].PredictedMS != pred.RootMS {
		t.Fatal("root sub-plan disagrees with root_ms")
	}
	if pred.SubPlans[0].Height != 0 {
		t.Fatal("root height must be 0")
	}
}

func TestPredictPGFormat(t *testing.T) {
	s, _ := trainedServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	pg := `[{"Plan": {"Node Type": "Seq Scan", "Relation Name": "t",
		"Total Cost": 1234.5, "Plan Rows": 10000,
		"Actual Total Time": 40.0, "Actual Rows": 9000, "Actual Loops": 1}}]`
	resp, err := http.Post(srv.URL+"/predict?format=pg&database=prod", "application/json", strings.NewReader(pg))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pred Prediction
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
		t.Fatal(err)
	}
	if len(pred.SubPlans) != 1 || pred.SubPlans[0].Operator != "Seq Scan" {
		t.Fatalf("unexpected sub-plans: %+v", pred.SubPlans)
	}
}

func TestPredictRejectsBadRequests(t *testing.T) {
	s, _ := trainedServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		method, url, body string
		want              int
	}{
		{"GET", "/predict", "", http.StatusMethodNotAllowed},
		{"POST", "/predict", "{garbage", http.StatusBadRequest},
		{"POST", "/predict?format=xml", "{}", http.StatusBadRequest},
		{"POST", "/predict", "{}", http.StatusBadRequest}, // no root
		{"POST", "/predict?format=pg", "[]", http.StatusBadRequest},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.url, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.url, resp.StatusCode, tc.want)
		}
	}
}

func TestHealthAndHotSwap(t *testing.T) {
	s, samples := trainedServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Parameters == 0 || h.LoRAEnabled {
		t.Fatalf("unexpected health: %+v", h)
	}

	// Hot-swap in a fine-tuned model; /healthz must reflect it.
	m := s.Model()
	m.FineTuneLoRA(dataset.Plans(samples[:40]), 2e-3, 2)
	s.Publish(m, 0)
	resp2, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var h2 Health
	if err := json.NewDecoder(resp2.Body).Decode(&h2); err != nil {
		t.Fatal(err)
	}
	if !h2.LoRAEnabled || h2.Parameters <= h.Parameters {
		t.Fatalf("hot swap not visible: %+v", h2)
	}
}

func TestPredictBatchEndpoint(t *testing.T) {
	s, samples := trainedServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const n = 6
	var body bytes.Buffer
	body.WriteString("[")
	for i := 0; i < n; i++ {
		if i > 0 {
			body.WriteString(",")
		}
		if err := samples[i].Plan.WriteJSON(&body); err != nil {
			t.Fatal(err)
		}
	}
	body.WriteString("]")
	resp, err := http.Post(srv.URL+"/predict/batch", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var preds []Prediction
	if err := json.NewDecoder(resp.Body).Decode(&preds); err != nil {
		t.Fatal(err)
	}
	if len(preds) != n {
		t.Fatalf("got %d predictions, want %d", len(preds), n)
	}
	for i, pred := range preds {
		// Batch output must match the single-plan endpoint exactly and
		// preserve input order.
		if want := s.Model().Predict(samples[i].Plan); pred.RootMS != want {
			t.Fatalf("plan %d: batch %v vs serial %v", i, pred.RootMS, want)
		}
		if len(pred.SubPlans) != samples[i].Plan.NodeCount() {
			t.Fatalf("plan %d: %d sub-plans, want %d", i, len(pred.SubPlans), samples[i].Plan.NodeCount())
		}
	}
}

func TestPredictBatchRejectsBadRequests(t *testing.T) {
	s, _ := trainedServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		method, url, body string
		want              int
	}{
		{"GET", "/predict/batch", "[]", http.StatusMethodNotAllowed},
		{"POST", "/predict/batch", "{not an array}", http.StatusBadRequest},
		{"POST", "/predict/batch", `[{}]`, http.StatusBadRequest}, // plan with no root
		{"POST", "/predict/batch?format=xml", "[]", http.StatusBadRequest},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.url, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.url, resp.StatusCode, tc.want)
		}
	}

	// An empty batch is valid and returns an empty JSON array, not null.
	resp, err := http.Post(srv.URL+"/predict/batch", "application/json", strings.NewReader("[]"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	if got := strings.TrimSpace(raw.String()); got != "[]" {
		t.Fatalf("empty batch body %q, want []", got)
	}
}

func TestHealthRejectsNonGET(t *testing.T) {
	s, _ := trainedServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/healthz", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz: status %d, want %d", resp.StatusCode, http.StatusMethodNotAllowed)
	}
}

// missDriver replays one reusable request through a handler with a body
// whose plans never repeat: the root est_cost of every plan in the body is
// rewritten in place before each call, so every operation misses both
// caches without the test harness allocating anything.
type missDriver struct {
	body  *replayBody
	req   *http.Request
	w     *nullResponseWriter
	patch func(op int) // rewrites body.data in place
	op    int
}

func (d *missDriver) do(h func(http.ResponseWriter, *http.Request)) {
	d.op++
	d.patch(d.op)
	d.body.off = 0
	h(d.w, d.req)
}

func newMissDriver(target, contentType string, data []byte, patch func(data []byte, op int)) *missDriver {
	d := &missDriver{body: &replayBody{data: data}, w: &nullResponseWriter{h: make(http.Header)}}
	d.req = httptest.NewRequest(http.MethodPost, target, nil)
	d.req.Header.Set("Content-Type", contentType)
	d.req.Body = d.body
	d.patch = func(op int) { patch(data, op) }
	return d
}

// withRootCost returns a shallow copy of p whose root carries the given
// estimated cost.
func withRootCost(p *plan.Plan, cost float64) *plan.Plan {
	root := *p.Root
	root.EstCost = cost
	return &plan.Plan{Database: p.Database, Root: &root}
}

// jsonMissDriver posts one plan as JSON; the root cost is a nine-digit
// integer the patch overwrites digit by digit.
func jsonMissDriver(t testing.TB, p *plan.Plan) *missDriver {
	const sentinel = "123456789"
	data := planBody(t, withRootCost(p, 123456789))
	at := bytes.Index(data, []byte(sentinel))
	if at < 0 || bytes.Count(data, []byte(sentinel)) != 1 {
		t.Fatal("root cost sentinel not found exactly once in the JSON body")
	}
	return newMissDriver("/predict", "application/json", data, func(data []byte, op int) {
		for i, v := len(sentinel)-1, 100000000+op; i >= 0; i, v = i-1, v/10 {
			data[at+i] = byte('0' + v%10)
		}
	})
}

// binaryMissDriver posts plans as one binary frame (a single-plan frame for
// /predict, a batch frame for /predict/batch); every root cost is a float64
// the patch overwrites with a value no earlier operation used.
func binaryMissDriver(t *testing.T, target string, plans []*plan.Plan) *missDriver {
	marked := make([]*plan.Plan, len(plans))
	for i, p := range plans {
		marked[i] = withRootCost(p, 1e6+float64(i))
	}
	var data []byte
	if target == "/predict" {
		var err error
		if data, err = plan.AppendBinary(nil, marked[0]); err != nil {
			t.Fatal(err)
		}
	} else {
		data = binaryBatch(t, marked)
	}
	offs := make([]int, len(marked))
	from := 0
	for i, p := range marked {
		want := binary.LittleEndian.AppendUint64(nil, math.Float64bits(p.Root.EstCost))
		at := bytes.Index(data[from:], want)
		if at < 0 {
			t.Fatalf("plan %d: root cost not found in the binary frame", i)
		}
		offs[i] = from + at
		from = offs[i] + 8
	}
	return newMissDriver(target, plan.BinaryContentType, data, func(data []byte, op int) {
		for i, at := range offs {
			binary.LittleEndian.PutUint64(data[at:], math.Float64bits(1e6+float64(op*len(offs)+i)))
		}
	})
}

// TestPredictHandlerAllocs guards per-request allocations of uncached
// predictions with reusable requests (nothing the harness does is counted).
// A server without caches decodes, featurizes, waits for a forward slot,
// runs the forward pass and renders without allocating at all. With the
// caches on, as daced runs, a miss pays
// for what outlives the request — the cached prediction and response, two
// cache entries and the coalescing calls; the admission stage adds nothing
// (TestSubmitIdleAllocs) — and a 32-plan batch for its per-plan predictions
// and cache entries plus the dedup map. Those two are gated at their measured
// counts (CHANGES.md: PR 13 for the batch, PR 14 for the miss, 21 → 15).
func TestPredictHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	m, samples := trainedModel(t)
	plans := dataset.Plans(samples)
	daced := Config{CacheSize: 64, QueueDepth: 4096}

	for _, tc := range []struct {
		name   string
		cfg    Config
		driver func() *missDriver
		batch  bool
		max    float64
	}{
		{"plain/json", Config{}, func() *missDriver { return jsonMissDriver(t, plans[0]) }, false, 0},
		{"plain/binary", Config{}, func() *missDriver { return binaryMissDriver(t, "/predict", plans[:1]) }, false, 0},
		{"daced/json-miss", daced, func() *missDriver { return jsonMissDriver(t, plans[0]) }, false, dacedMissAllocs},
		{"daced/binary-batch-32", daced, func() *missDriver { return binaryMissDriver(t, "/predict/batch", plans[:32]) }, true, dacedBatchAllocs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewWithConfig(m, tc.cfg)
			defer s.Close()
			s.Workers = 2 // the batch fan-out's goroutines allocate; pin their number
			h := s.handlePredict
			if tc.batch {
				h = s.handlePredictBatch
			}
			d := tc.driver()
			for i := 0; i < 100; i++ { // warm the pools and fill both caches: from here every insert evicts
				d.do(h)
			}
			avg := testing.AllocsPerRun(200, func() { d.do(h) })
			t.Logf("%.0f allocs/op", avg)
			if avg > tc.max {
				t.Fatalf("uncached request allocates %.0f/op, want <= %.0f", avg, tc.max)
			}
		})
	}
}

// Allocations per uncached request with daced's pipeline on (see
// TestPredictHandlerAllocs).
const (
	dacedMissAllocs  = 15
	dacedBatchAllocs = 82
)
