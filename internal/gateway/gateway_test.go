package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dace/internal/core"
	"dace/internal/dataset"
	"dace/internal/executor"
	"dace/internal/plan"
	"dace/internal/schema"
	"dace/internal/serve"
	"dace/internal/tenant"
	"dace/internal/wire"
)

// trainedModel trains one small model shared by every replica in a test
// fleet, so all replicas predict identically and response bytes can be
// compared across routes.
func trainedModel(t *testing.T) (*core.Model, []dataset.Sample) {
	t.Helper()
	samples, err := dataset.ComplexWorkload(schema.BenchmarkDB("airline"), 80, executor.M1())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.DK, cfg.DV = 32, 32
	cfg.Hidden = []int{32, 16, 1}
	cfg.Epochs = 8
	return core.Train(dataset.Plans(samples), cfg), samples
}

// fleet is a test replica fleet plus a gateway routing over it.
type fleet struct {
	servers  []*serve.Server
	backends []*httptest.Server
	gw       *Gateway
	front    *httptest.Server
}

// newFleet starts n replicas serving m, plus the gateway. domains[0], when
// given, builds replica i's tenant registry in place of a plain tenant zero
// over m.
func newFleet(t *testing.T, m *core.Model, n int, domains ...func(int) *tenant.Registry) *fleet {
	t.Helper()
	return newFleetConfig(t, m, n, serve.Config{}, domains...)
}

// newFleetConfig is newFleet with the replicas' pipeline configured, for
// tests that read the replicas' cache counters.
func newFleetConfig(t *testing.T, m *core.Model, n int, cfg serve.Config, domains ...func(int) *tenant.Registry) *fleet {
	t.Helper()
	f := &fleet{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		reg := tenant.New(m, nil, nil, tenant.Config{})
		if len(domains) > 0 {
			reg = domains[0](i)
		}
		s := serve.NewWithRegistry(reg, cfg)
		b := httptest.NewServer(s.Handler())
		f.servers = append(f.servers, s)
		f.backends = append(f.backends, b)
		urls[i] = b.URL
	}
	gw, err := New(Config{Replicas: urls, HealthInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	f.gw = gw
	f.front = httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		f.front.Close()
		gw.Close()
		for i, b := range f.backends {
			b.Close()
			f.servers[i].Close()
		}
	})
	return f
}

func post(t *testing.T, url, ctype string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

func planJSON(t *testing.T, p *plan.Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGatewayPredictMatchesDirect: a routed prediction is byte-identical
// to the same request served directly by a replica, for both wire formats.
func TestGatewayPredictMatchesDirect(t *testing.T) {
	m, samples := trainedModel(t)
	f := newFleet(t, m, 3)
	direct := f.backends[0].URL

	for i := 0; i < 6; i++ {
		p := samples[i].Plan
		jsonBody := planJSON(t, p)
		binBody, err := plan.AppendBinary(nil, p)
		if err != nil {
			t.Fatal(err)
		}

		st, _, want := post(t, direct+"/predict", "application/json", jsonBody)
		if st != http.StatusOK {
			t.Fatalf("direct status %d: %s", st, want)
		}
		st, hdr, got := post(t, f.front.URL+"/predict", "application/json", jsonBody)
		if st != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("routed JSON plan %d: status %d body mismatch", i, st)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type %q", ct)
		}
		st, _, got = post(t, f.front.URL+"/predict", plan.BinaryContentType, binBody)
		if st != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("routed binary plan %d: status %d body mismatch", i, st)
		}
	}

	// Rejections are part of the oracle: same status, same body, on every
	// encoding — against replicas with the caches on, where a request that
	// fails inside a coalesced compute could leave the flight behind.
	f = newFleetConfig(t, m, 3, serve.Config{CacheSize: 256})
	const js, bin = "application/json", plan.BinaryContentType
	jsonBody, binBody := planJSON(t, samples[0].Plan), mustBinary(t, samples[0].Plan)
	nan, wideType := hostilePlans()
	bad, big := http.StatusBadRequest, http.StatusRequestEntityTooLarge
	checkRejectedAlike(t, f, "/predict", []rejected{
		{"unknown format", "?format=xml", js, jsonBody, bad},
		{"binary content type with format=pg", "?format=pg", bin, binBody, bad},
		{"truncated JSON", "", js, jsonBody[:len(jsonBody)/2], bad},
		{"truncated binary frame", "", bin, binBody[:len(binBody)-5], bad},
		{"truncated pg", "?format=pg", js, []byte(pgGoodDoc[:len(pgGoodDoc)/2]), bad},
		{"binary NaN feature", "", bin, mustBinary(t, nan), bad},
		{"binary out-of-range type", "", bin, mustBinary(t, wideType), bad},
		{"JSON out-of-range type", "", js, planJSON(t, wideType), bad},
		{"pg null child", "?format=pg&database=prod", js, []byte(pgNullChildDoc), bad},
		{"pg null child, again", "?format=pg&database=prod", js, []byte(pgNullChildDoc), bad},
		{"pg null plan", "?format=pg", js, []byte(`[{"Plan": null}]`), bad},
	})
	defer func(old int64) { wire.MaxPredictBody = old }(wire.MaxPredictBody)
	wire.MaxPredictBody = int64(len(binBody)) - 1 // the JSON and pg bodies are longer still
	checkRejectedAlike(t, f, "/predict", []rejected{
		{"oversized JSON", "", js, jsonBody, big},
		{"oversized binary", "", bin, binBody, big},
		{"oversized pg", "?format=pg", js, []byte(pgGoodDoc + strings.Repeat(" ", len(binBody))), big},
	})
}

// rejected is one request the request edge must answer identically — status
// and body — whether it reaches a replica directly or through the gateway.
type rejected struct {
	name, query, ctype string
	body               []byte
	want               int
}

// checkRejectedAlike posts every row to a replica and to the gateway, each
// answer due within a second, and then requires every replica's body cache
// to have nothing in flight: a rejected request must not strand a compute
// that later identical requests would wait on.
func checkRejectedAlike(t *testing.T, f *fleet, path string, rows []rejected) {
	t.Helper()
	client := &http.Client{Timeout: time.Second}
	do := func(url string, c rejected) (int, []byte) {
		t.Helper()
		resp, err := client.Post(url+path+c.query, c.ctype, bytes.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s %s: %v", path, c.name, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: %v", path, c.name, err)
		}
		return resp.StatusCode, b
	}
	for _, c := range rows {
		dst, dbody := do(f.backends[0].URL, c)
		rst, rbody := do(f.front.URL, c)
		if dst != c.want {
			t.Errorf("%s %s: direct status %d (%q), want %d", path, c.name, dst, dbody, c.want)
		}
		if rst != dst || !bytes.Equal(rbody, dbody) {
			t.Errorf("%s %s: routed %d %q, direct %d %q", path, c.name, rst, rbody, dst, dbody)
		}
	}
	for i, b := range f.backends {
		resp, err := client.Get(b.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h serve.Health
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil || h.BodyCache == nil || h.BodyCache.Inflight != 0 {
			t.Fatalf("replica %d after the rejected rows: health error %v, body cache %+v, want 0 in flight", i, err, h.BodyCache)
		}
	}
}

const (
	pgGoodDoc      = `[{"Plan": {"Node Type": "Seq Scan", "Total Cost": 1234.5, "Plan Rows": 10000}}]`
	pgNullChildDoc = `[{"Plan": {"Node Type": "Hash Join", "Plans": [null]}}]`
)

// hostilePlans are two trees no decoder may let through: a NaN feature
// (binary only — JSON cannot spell it) and an operator type past the one-hot.
func hostilePlans() (nan, wideType *plan.Plan) {
	nan = &plan.Plan{Database: "d", Root: &plan.Node{Type: plan.SeqScan, EstRows: math.NaN(), EstCost: 1}}
	wideType = &plan.Plan{Database: "d", Root: &plan.Node{Type: 99, EstRows: 1, EstCost: 1}}
	return nan, wideType
}

func mustBinary(t *testing.T, p *plan.Plan) []byte {
	t.Helper()
	b, err := plan.AppendBinary(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// binaryBatch assembles one binary /predict/batch frame from plan trees:
// the frame header and plan count, then each plan's body off its flat form.
func binaryBatch(t *testing.T, plans []*plan.Plan) []byte {
	t.Helper()
	b := plan.AppendBinaryBatchCount(plan.AppendBinaryFrameHeader(nil), len(plans))
	var f plan.FlatPlan
	for _, p := range plans {
		var err error
		if b, err = f.FromTree(p).AppendBinaryBody(b); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestGatewayPredictPG: the pg explain format routes through re-encoding.
func TestGatewayPredictPG(t *testing.T) {
	m, _ := trainedModel(t)
	f := newFleet(t, m, 2)
	pg := `[{"Plan": {"Node Type": "Seq Scan", "Relation Name": "t",
		"Total Cost": 1234.5, "Plan Rows": 10000,
		"Actual Total Time": 40.0, "Actual Rows": 9000, "Actual Loops": 1}}]`
	st, _, body := post(t, f.front.URL+"/predict?format=pg&database=prod", "application/json", []byte(pg))
	if st != http.StatusOK {
		t.Fatalf("status %d: %s", st, body)
	}
	var pred struct {
		RootMS float64 `json:"root_ms"`
	}
	if err := json.Unmarshal(body, &pred); err != nil || pred.RootMS <= 0 {
		t.Fatalf("bad prediction %s (%v)", body, err)
	}
}

// TestGatewayBatchMatchesDirect: a sharded batch merges back to the exact
// bytes one replica serving the whole batch produces, for JSON and binary
// request encodings, across fleet sizes (1 = pure split/merge identity,
// 3 = true multi-shard merge).
func TestGatewayBatchMatchesDirect(t *testing.T) {
	m, samples := trainedModel(t)
	plans := make([]*plan.Plan, 12)
	for i := range plans {
		plans[i] = samples[i].Plan
	}
	var jsonBody bytes.Buffer
	jsonBody.WriteByte('[')
	for i, p := range plans {
		if i > 0 {
			jsonBody.WriteByte(',')
		}
		if err := p.WriteJSON(&jsonBody); err != nil {
			t.Fatal(err)
		}
	}
	jsonBody.WriteByte(']')
	binBody := binaryBatch(t, plans)

	for _, n := range []int{1, 3} {
		f := newFleet(t, m, n)
		st, _, want := post(t, f.backends[0].URL+"/predict/batch", "application/json", jsonBody.Bytes())
		if st != http.StatusOK {
			t.Fatalf("direct status %d: %s", st, want)
		}
		st, _, got := post(t, f.front.URL+"/predict/batch", "application/json", jsonBody.Bytes())
		if st != http.StatusOK {
			t.Fatalf("n=%d routed status %d: %s", n, st, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d JSON batch bytes diverge from direct response", n)
		}
		st, _, got = post(t, f.front.URL+"/predict/batch", plan.BinaryContentType, binBody)
		if st != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("n=%d binary batch: status %d, match=%v", n, st, bytes.Equal(got, want))
		}
	}

	// Rejected batches, and the empty one, answer alike direct and routed.
	// Each 20-entry batch below is valid except for entry 17.
	const js, bin = "application/json", plan.BinaryContentType
	nan, wideType := hostilePlans()
	with17 := func(entry17 *plan.Plan) []*plan.Plan {
		ps := make([]*plan.Plan, 20)
		for i := range ps {
			ps[i] = plans[i%len(plans)]
		}
		ps[17] = entry17
		return ps
	}
	var docs [][]byte
	for _, p := range with17(wideType) {
		docs = append(docs, planJSON(t, p))
	}
	wideJSON := append(append([]byte{'['}, bytes.Join(docs, []byte{','})...), ']')
	wideBin, nanBin := binaryBatch(t, with17(wideType)), binaryBatch(t, with17(nan))
	pgDocs := make([]string, 20)
	for i := range pgDocs {
		pgDocs[i] = pgGoodDoc
	}
	pgDocs[17] = pgNullChildDoc
	pgBatch := []byte("[" + strings.Join(pgDocs, ",") + "]")
	emptyBin := plan.AppendBinaryBatchCount(plan.AppendBinaryFrameHeader(nil), 0)
	f := newFleetConfig(t, m, 3, serve.Config{CacheSize: 256})
	bad, big := http.StatusBadRequest, http.StatusRequestEntityTooLarge
	rows := []rejected{
		{"unknown format", "?format=xml", js, jsonBody.Bytes(), bad},
		{"binary content type with format=pg", "?format=pg", bin, binBody, bad},
		{"truncated JSON", "", js, jsonBody.Bytes()[:jsonBody.Len()/2], bad},
		{"truncated binary frame", "", bin, binBody[:len(binBody)-5], bad},
		{"not an array", "", js, []byte("{}"), bad},
		{"JSON bad entry 17", "", js, wideJSON, bad},
		{"binary bad entry 17", "", bin, wideBin, bad},
		{"binary NaN entry 17", "", bin, nanBin, bad},
		{"pg null child at entry 17", "?format=pg", js, pgBatch, bad},
		{"empty JSON batch", "", js, []byte("[]"), http.StatusOK},
		{"empty binary batch", "", bin, emptyBin, http.StatusOK},
	}
	checkRejectedAlike(t, f, "/predict/batch", rows)
	for _, c := range rows {
		if !strings.Contains(c.name, "entry 17") {
			continue
		}
		if _, _, body := post(t, f.front.URL+"/predict/batch"+c.query, c.ctype, c.body); !bytes.HasPrefix(body, []byte("plan[17]: ")) {
			t.Errorf("%s: body %q does not name plan[17]", c.name, body)
		}
	}
	defer func(old int64) { wire.MaxBatchBody = old }(wire.MaxBatchBody)
	wire.MaxBatchBody = int64(len(binBody)) - 1 // the JSON batch is longer still
	checkRejectedAlike(t, f, "/predict/batch", []rejected{
		{"oversized JSON", "", js, jsonBody.Bytes(), big},
		{"oversized binary", "", bin, binBody, big},
		{"oversized pg", "?format=pg", js, append(bytes.Repeat([]byte{' '}, len(binBody)), pgBatch...), big},
	})
}

// TestGatewayKillReplicaZeroFailures: killing a replica mid-stream must
// not fail a single request — the transport error ejects it and the
// request retries on the remapped ring. The kill lands while 16 clients
// are mid-stream, so requests in flight on the dying replica see their
// connection reset and later ones a dead listener; every response must
// still be 200 and byte-equal to what a replica answers directly.
func TestGatewayKillReplicaZeroFailures(t *testing.T) {
	m, samples := trainedModel(t)
	f := newFleet(t, m, 3)

	bodies := make([][]byte, 8)
	want := make([][]byte, len(bodies))
	for i := range bodies {
		var err error
		if bodies[i], err = plan.AppendBinary(nil, samples[i].Plan); err != nil {
			t.Fatal(err)
		}
		st, _, resp := post(t, f.backends[0].URL+"/predict", plan.BinaryContentType, bodies[i])
		if st != http.StatusOK {
			t.Fatalf("direct plan %d: status %d: %s", i, st, resp)
		}
		want[i] = resp
	}
	send := func() {
		t.Helper()
		for i, b := range bodies {
			st, _, resp := post(t, f.front.URL+"/predict", plan.BinaryContentType, b)
			if st != http.StatusOK || !bytes.Equal(resp, want[i]) {
				t.Fatalf("plan %d: status %d, direct-equal %v: %s", i, st, bytes.Equal(resp, want[i]), resp)
			}
		}
	}
	send() // warm: all replicas healthy

	// Kill one replica abruptly (no graceful drain) once a third of the
	// concurrent phase's requests are in.
	const clients, total = 16, 16 * 40
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	var next atomic.Int64
	var kill sync.Once
	var wg, killed sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= total {
					return
				}
				if n >= total/3 {
					kill.Do(func() {
						killed.Add(1)
						go func() {
							defer killed.Done()
							f.backends[1].CloseClientConnections()
							f.backends[1].Close()
						}()
					})
				}
				i := n % len(bodies)
				resp, err := client.Post(f.front.URL+"/predict", plan.BinaryContentType, bytes.NewReader(bodies[i]))
				if err != nil {
					t.Errorf("request %d: %v", n, err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, want[i]) {
					t.Errorf("request %d (plan %d): status %d, read error %v, direct-equal %v",
						n, i, resp.StatusCode, err, bytes.Equal(got, want[i]))
					return
				}
			}
		}()
	}
	wg.Wait()
	killed.Wait()
	if t.Failed() {
		t.FailNow()
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		healthy := 0
		for _, rh := range f.gw.pool.health() {
			if rh.Healthy {
				healthy++
			}
		}
		if healthy == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("killed replica was never ejected by health checks")
		}
		time.Sleep(10 * time.Millisecond)
	}
	send() // post-ejection: routing avoids the dead replica outright
}

// TestGatewayBackpressure: a saturated replica turns into 503+Retry-After
// at the gateway, not a queue.
func TestGatewayBackpressure(t *testing.T) {
	release := make(chan struct{})
	blocked := make(chan struct{}, 16)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz/ready", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ready"}`))
	})
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		blocked <- struct{}{}
		<-release
		w.Write([]byte(`{"root_ms":1}`))
	})
	backend := httptest.NewServer(mux)
	defer backend.Close()

	gw, err := New(Config{Replicas: []string{backend.URL}, MaxInflight: 1, HealthInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	front := httptest.NewServer(gw.Handler())
	defer front.Close()
	// Unblock the parked handler before the servers close (defers are LIFO).
	defer close(release)

	body := tinyPlanBinary(t, 0)
	go http.Post(front.URL+"/predict", plan.BinaryContentType, bytes.NewReader(body))
	<-blocked // the one in-flight slot is taken

	resp, err := http.Post(front.URL+"/predict", plan.BinaryContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestGatewayReadiness: liveness is unconditional; readiness tracks
// whether any replica is routable.
func TestGatewayReadiness(t *testing.T) {
	backend := httptest.NewServer(http.NotFoundHandler()) // never ready
	gw, err := New(Config{Replicas: []string{backend.URL}, HealthInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	front := httptest.NewServer(gw.Handler())
	defer front.Close()
	backend.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(front.URL + "/healthz/ready")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("not-ready without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gateway never went unready with a dead fleet")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get(front.URL + "/healthz/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("liveness must hold while unready, got %d", resp.StatusCode)
	}

	// Routed traffic answers 503, not a hang or 5xx soup.
	st, hdr, _ := post(t, front.URL+"/predict", plan.BinaryContentType, tinyPlanBinary(t, 0))
	if st != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("routing with no fleet: status %d", st)
	}
}

// TestGatewayBeginDrain: draining pins readiness to 503 + Retry-After with a
// draining body while the fleet is healthy, so a load balancer ejects the
// gateway before its listener closes — and routing and liveness go on.
func TestGatewayBeginDrain(t *testing.T) {
	m, samples := trainedModel(t)
	f := newFleet(t, m, 2)
	get := func(path string) (int, http.Header, []byte) {
		t.Helper()
		resp, err := http.Get(f.front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, b
	}
	if st, _, _ := get("/healthz/ready"); st != http.StatusOK {
		t.Fatalf("ready before the drain: status %d", st)
	}

	f.gw.BeginDrain()
	st, hdr, body := get("/healthz/ready")
	if st != http.StatusServiceUnavailable || hdr.Get("Retry-After") != "1" || string(body) != `{"status":"draining"}`+"\n" {
		t.Fatalf("ready while draining: %d Retry-After=%q %q, want 503, 1 and the draining body", st, hdr.Get("Retry-After"), body)
	}
	if st, _, resp := post(t, f.front.URL+"/predict", "application/json", planJSON(t, samples[0].Plan)); st != http.StatusOK {
		t.Fatalf("predict while draining: status %d: %s", st, resp)
	}
	if st, _, _ := get("/healthz/live"); st != http.StatusOK {
		t.Fatalf("live while draining: status %d", st)
	}
}

// TestGatewayHealthReport: /healthz aggregates per-replica state.
func TestGatewayHealthReport(t *testing.T) {
	m, _ := trainedModel(t)
	f := newFleet(t, m, 2)
	resp, err := http.Get(f.front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h GatewayHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.Ready || h.Status != "ok" || len(h.Replicas) != 2 {
		t.Fatalf("health %+v", h)
	}
}

// TestGatewayBadRequests: client errors are answered at the gateway,
// before any replica sees bytes.
func TestGatewayBadRequests(t *testing.T) {
	m, _ := trainedModel(t)
	f := newFleet(t, m, 1)
	cases := []struct {
		path, ctype, body string
		want              int
	}{
		{"/predict?format=nope", "application/json", "{}", http.StatusBadRequest},
		{"/predict?format=pg", plan.BinaryContentType, "xx", http.StatusBadRequest},
		{"/predict", "application/json", "{not json", http.StatusBadRequest},
		{"/predict", plan.BinaryContentType, "xx", http.StatusBadRequest},
		{"/predict/batch", "application/json", "{}", http.StatusBadRequest},
		{"/predict/batch", "application/json", `[{"node_type": -1}]`, http.StatusBadRequest},
	}
	for _, c := range cases {
		st, _, _ := post(t, f.front.URL+c.path, c.ctype, []byte(c.body))
		if st != c.want {
			t.Errorf("%s (%s): status %d want %d", c.path, c.ctype, st, c.want)
		}
	}
	resp, err := http.Get(f.front.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "POST" {
		t.Fatalf("GET /predict: %d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// TestGatewayEmptyBatch routes nothing and answers locally.
func TestGatewayEmptyBatch(t *testing.T) {
	m, _ := trainedModel(t)
	f := newFleet(t, m, 2)
	st, _, body := post(t, f.front.URL+"/predict/batch", "application/json", []byte("[]"))
	if st != http.StatusOK || string(body) != "[]\n" {
		t.Fatalf("empty batch: %d %q", st, body)
	}
}

// TestGatewayShardDistribution: with enough distinct plans and several
// replicas, every replica serves some traffic (the consistent-hash split
// is balanced enough that none sits idle), and routing has affinity: every
// repeat of a plan lands on the replica that saw it first, so each
// replica's body cache hits on exactly the repeats of the plans it missed
// on once.
func TestGatewayShardDistribution(t *testing.T) {
	m, samples := trainedModel(t)
	f := newFleetConfig(t, m, 4, serve.Config{CacheSize: 256})
	const repeats = 3
	distinct := map[string]bool{}
	var bodies [][]byte
	for i := 0; i < 60 && i < len(samples); i++ {
		if b := planJSON(t, samples[i].Plan); !distinct[string(b)] {
			distinct[string(b)] = true
			bodies = append(bodies, b)
		}
	}
	for r := 0; r < repeats; r++ {
		for i, b := range bodies {
			if st, _, resp := post(t, f.front.URL+"/predict", "application/json", b); st != http.StatusOK {
				t.Fatalf("plan %d: %d %s", i, st, resp)
			}
		}
	}
	for _, rh := range f.gw.pool.health() {
		if rh.Requests == 0 {
			t.Errorf("replica %s served no traffic across %d distinct plans", rh.Name, len(bodies))
		}
	}
	var hits, misses uint64
	for i, b := range f.backends {
		resp, err := http.Get(b.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h serve.Health
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil || h.BodyCache == nil {
			t.Fatalf("replica %d health: %v (body cache %v)", i, err, h.BodyCache)
		}
		if h.BodyCache.Hits != (repeats-1)*h.BodyCache.Misses {
			t.Errorf("replica %d: %d body-cache hits for %d first sights, want %d — a plan's repeats reached two replicas",
				i, h.BodyCache.Hits, h.BodyCache.Misses, (repeats-1)*h.BodyCache.Misses)
		}
		hits, misses = hits+h.BodyCache.Hits, misses+h.BodyCache.Misses
	}
	if n := uint64(len(bodies)); misses != n || hits != n*(repeats-1) {
		t.Errorf("fleet body caches: %d misses / %d hits for %d plans × %d sends, want %d / %d",
			misses, hits, n, repeats, n, n*(repeats-1))
	}
}

// tinyPlanBinary encodes a minimal valid plan for tests that need a
// routable body without training a model.
func tinyPlanBinary(t *testing.T, i int) []byte {
	t.Helper()
	p := &plan.Plan{Database: "d", Root: &plan.Node{
		Type: plan.NodeType(i % 8), EstRows: 10, EstCost: float64(100 + i), ActualRows: 9, ActualMS: 1,
	}}
	b, err := plan.AppendBinary(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
