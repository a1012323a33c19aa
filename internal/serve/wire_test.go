package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"dace/internal/plan"
)

// TestAppendJSONFloatMatchesEncodingJSON pins the handwritten float encoder
// to encoding/json across its corner cases (format switch at 1e-6/1e21,
// exponent zero-trim, -0, subnormals) and a fuzz of random bit patterns.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 2.5, 1e-6, 9.999e-7, 1e-7,
		1e20, 1e21, 1.0000000000000002e21, 5e-324, math.MaxFloat64,
		-math.MaxFloat64, 1234567.891011, 3.141592653589793, 1e-300, 7e300,
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		vals = append(vals, v)
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("%v (bits %x): got %q, want %q", v, math.Float64bits(v), got, want)
		}
	}
}

// TestAppendJSONStringMatchesEncodingJSON pins the string encoder, HTML
// escaping and all.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "Seq Scan", "Hash Join", `quote " backslash \`, "tab\tnl\nret\r",
		"ctrl\x01\x1f", "<script>&amp;</script>", "unicode é 日本語",
		"seps   and  ", "bad utf8 \xff\xfe tail", "ſK",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("%q: got %q, want %q", s, got, want)
		}
	}
}

// TestAppendPredictionMatchesEncodingJSON builds Prediction documents from
// streaming-decoded plans with corner-case feature values and demands the
// handwritten renderer reproduce encoding/json byte for byte.
func TestAppendPredictionMatchesEncodingJSON(t *testing.T) {
	docs := []string{
		`{"root":{"type":0,"est_rows":1e20,"est_cost":-0,"children":[
			{"type":9,"est_rows":0.30000000000000004,"est_cost":5e-324},
			{"type":15,"est_rows":1e21,"est_cost":9.999e-7,"children":[{"type":3}]}]}}`,
		`{"root":{"type":7,"est_rows":123456789.123456789,"est_cost":1}}`,
	}
	var dec plan.Decoder
	rng := rand.New(rand.NewSource(7))
	for _, doc := range docs {
		f, err := dec.Decode([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		preds := make([]float64, f.Len())
		for i := range preds {
			preds[i] = []float64{0.5, 1e-8, 4.2e22, -17.25, 0}[rng.Intn(5)]
		}
		// The reference document, rendered by encoding/json exactly as the
		// old handler did.
		ref := Prediction{RootMS: preds[0], SubPlans: make([]SubPlan, 0, f.Len())}
		for i := 0; i < f.Len(); i++ {
			ref.SubPlans = append(ref.SubPlans, SubPlan{
				Index: i, Operator: f.Types[i].String(), Height: int(f.Heights[i]),
				EstRows: f.EstRows[i], EstCost: f.EstCost[i], PredictedMS: preds[i],
			})
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ref); err != nil {
			t.Fatal(err)
		}
		got, err := appendPrediction(nil, f, preds)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("renderer diverged:\n got %s\nwant %s", got, want.Bytes())
		}
	}
	// Non-finite predictions must be refused, as encoding/json would.
	f, err := dec.Decode([]byte(`{"root":{"type":0}}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendPrediction(nil, f, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN prediction encoded")
	}
}

// postWire posts a body with an explicit content type.
func postWire(t *testing.T, h http.Handler, path, ct string, body []byte) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// TestBinaryPredictMatchesJSON is the wire-parity contract: the same plan
// posted as JSON and as a binary frame must produce bitwise-identical
// responses, on both the plain and the fully pipelined server.
func TestBinaryPredictMatchesJSON(t *testing.T) {
	m, samples := trainedModel(t)
	plain := New(m)
	piped := NewWithConfig(m, pipelineConfig())
	defer piped.Close()

	for name, h := range map[string]http.Handler{"plain": plain.Handler(), "pipeline": piped.Handler()} {
		for i := 0; i < 8; i++ {
			jsonBody := planBody(t, samples[i].Plan)
			binBody, err := plan.AppendBinary(nil, samples[i].Plan)
			if err != nil {
				t.Fatal(err)
			}
			code, want := postWire(t, h, "/predict", "application/json", jsonBody)
			if code != http.StatusOK {
				t.Fatalf("%s: json status %d", name, code)
			}
			code, got := postWire(t, h, "/predict", plan.BinaryContentType, binBody)
			if code != http.StatusOK {
				t.Fatalf("%s: binary status %d", name, code)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: binary response diverged from JSON response", name)
			}
			// Repeat the binary request: the body-cache hit must serve the
			// identical bytes.
			if code, again := postWire(t, h, "/predict", plan.BinaryContentType+"; v=1", binBody); code != http.StatusOK || !bytes.Equal(again, want) {
				t.Fatalf("%s: cached binary response diverged (status %d)", name, code)
			}
		}
	}
}

// TestBinaryBatchMatchesJSON does the same for /predict/batch.
func TestBinaryBatchMatchesJSON(t *testing.T) {
	m, samples := trainedModel(t)
	s := NewWithConfig(m, Config{CacheSize: 256})
	defer s.Close()
	h := s.Handler()

	const n = 6
	plans := make([]*plan.Plan, n)
	var jsonBody bytes.Buffer
	jsonBody.WriteString("[")
	for i := 0; i < n; i++ {
		plans[i] = samples[i%4].Plan // include intra-batch duplicates
		if i > 0 {
			jsonBody.WriteString(",")
		}
		if err := plans[i].WriteJSON(&jsonBody); err != nil {
			t.Fatal(err)
		}
	}
	jsonBody.WriteString("]")
	binBody := binaryBatch(t, plans)
	code, want := postWire(t, h, "/predict/batch", "application/json", jsonBody.Bytes())
	if code != http.StatusOK {
		t.Fatalf("json batch status %d", code)
	}
	code, got := postWire(t, h, "/predict/batch", plan.BinaryContentType, binBody)
	if code != http.StatusOK {
		t.Fatalf("binary batch status %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("binary batch response diverged from JSON batch response")
	}
}

// TestBatchErrorsCarryIndex pins the "plan[i]: ..." error contract on both
// wire encodings.
func TestBatchErrorsCarryIndex(t *testing.T) {
	m, samples := trainedModel(t)
	s := New(m)
	h := s.Handler()

	body := []byte(`[{"root":{"type":0}},{"root":{"type":0}},{}]`)
	code, resp := postWire(t, h, "/predict/batch", "application/json", body)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	if !strings.Contains(string(resp), "plan[2]:") {
		t.Fatalf("error %q does not name the bad entry", resp)
	}

	// Binary: corrupt the third plan's type byte to an unknown operator.
	plans := []*plan.Plan{samples[0].Plan, samples[1].Plan, {Database: "d", Root: &plan.Node{Type: plan.NumNodeTypes - 1}}}
	bin := binaryBatch(t, plans)
	bin[len(bin)-34] = 0xEE // third plan's single node: type byte → 238
	code, resp = postWire(t, h, "/predict/batch", plan.BinaryContentType, bin)
	if code != http.StatusBadRequest {
		t.Fatalf("binary status %d, want 400", code)
	}
	if !strings.Contains(string(resp), "plan[2]:") {
		t.Fatalf("binary error %q does not name the bad entry", resp)
	}
}

// TestBatchHostileCountAllocatesNothingUpFront: a binary batch frame may
// claim as many plans as it has byte pairs, so storage sized from the claimed
// count would let a 2 MB frame of empty plans demand tens of megabytes before
// its first entry is even looked at. The handler must reject entry 0 having
// allocated next to nothing.
func TestBatchHostileCountAllocatesNothingUpFront(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is distorted under the race detector")
	}
	m, _ := trainedModel(t)
	s := NewWithConfig(m, Config{CacheSize: 64})
	defer s.Close()

	const claimed = 1_000_000
	frame := plan.AppendBinaryBatchCount(plan.AppendBinaryFrameHeader(nil), claimed)
	frame = append(frame, make([]byte, 2*claimed)...) // empty plans: no database, no nodes
	body := &replayBody{data: frame}
	req := httptest.NewRequest(http.MethodPost, "/predict/batch", nil)
	req.Header.Set("Content-Type", plan.BinaryContentType)
	req.Body = body
	rec := httptest.NewRecorder()

	// With the collector off the pooled request scratch cannot be dropped
	// between the two calls, and on one P it cannot be out of reach either
	// (ReadMemStats stops the world, and a goroutine that resumes on another
	// P finds that P's pool slot empty: 1–3 % of runs re-grew the 4 MB
	// buffer), so the second reads the frame into the buffer the first one
	// grew and the delta is the handler's own doing.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s.handlePredictBatch(httptest.NewRecorder(), req)
	body.off = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.handlePredictBatch(rec, req)
	runtime.ReadMemStats(&after)

	if rec.Code != http.StatusBadRequest || !strings.HasPrefix(rec.Body.String(), "plan[0]: ") {
		t.Fatalf("status %d body %q, want 400 naming plan[0]", rec.Code, rec.Body.String())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("rejecting a frame claiming %d plans allocated %d bytes, want < 1 MiB", claimed, got)
	}
}

// TestPGAndPlanFormatShareCacheEntry: a pg EXPLAIN document and a plan-format
// document describing the same plan flatten to the same fingerprint, so the
// second request — whichever format comes second — is a prediction-cache hit
// and the two responses are byte-identical.
func TestPGAndPlanFormatShareCacheEntry(t *testing.T) {
	m, _ := trainedModel(t)
	s := NewWithConfig(m, Config{CacheSize: 64})
	defer s.Close()
	h := s.Handler()

	pg := `[{"Plan": {"Node Type": "Hash Join", "Total Cost": 5120.25, "Plan Rows": 300, "Plans": [
		{"Node Type": "Seq Scan", "Relation Name": "a", "Total Cost": 1234.5, "Plan Rows": 10000},
		{"Node Type": "Hash", "Total Cost": 77, "Plan Rows": 40, "Plans": [
			{"Node Type": "Index Scan", "Relation Name": "b", "Total Cost": 55.5, "Plan Rows": 40}]}]}}]`
	native := `{"database":"prod","root":{"type":6,"est_rows":300,"est_cost":5120.25,"children":[
		{"type":0,"est_rows":10000,"est_cost":1234.5},
		{"type":8,"est_rows":40,"est_cost":77,"children":[{"type":1,"est_rows":40,"est_cost":55.5}]}]}}`

	code, pgResp := postWire(t, h, "/predict?format=pg&database=prod", "application/json", []byte(pg))
	if code != http.StatusOK {
		t.Fatalf("pg status %d: %s", code, pgResp)
	}
	code, nativeResp := postWire(t, h, "/predict", "application/json", []byte(native))
	if code != http.StatusOK {
		t.Fatalf("plan status %d: %s", code, nativeResp)
	}
	if !bytes.Equal(pgResp, nativeResp) {
		t.Fatalf("formats disagree:\n  pg %s\nplan %s", pgResp, nativeResp)
	}
	if st := s.preds.Stats(); st.Entries != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("prediction cache after pg then plan: %+v, want one entry, one miss, one hit", st)
	}
}

// TestPredictRejectsBinaryPG: the binary encoding cannot carry pg explain
// documents.
func TestPredictRejectsBinaryPG(t *testing.T) {
	m, _ := trainedModel(t)
	h := New(m).Handler()
	code, _ := postWire(t, h, "/predict?format=pg", plan.BinaryContentType, []byte{0xDA, 0xCE, 1, 0, 0})
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	if code, _ := postWire(t, h, "/predict/batch?format=pg", plan.BinaryContentType, nil); code != http.StatusBadRequest {
		t.Fatalf("batch status %d, want 400", code)
	}
}

// nullResponseWriter reuses one header map and discards the body — the
// handler-side allocation probe.
type nullResponseWriter struct{ h http.Header }

func (n *nullResponseWriter) Header() http.Header         { return n.h }
func (n *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (n *nullResponseWriter) WriteHeader(int)             {}

// replayBody is a rewindable io.ReadCloser over fixed bytes.
type replayBody struct {
	data []byte
	off  int
}

func (b *replayBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}
func (b *replayBody) Close() error { return nil }

// TestPredictCacheHitZeroAlloc is the tentpole's allocation guard: once a
// response is in the body cache, serving it again allocates nothing — no
// plan tree, no decoder state, no header churn.
func TestPredictCacheHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	m, samples := trainedModel(t)
	s := NewWithConfig(m, Config{CacheSize: 1024})
	defer s.Close()

	for _, tc := range []struct {
		name string
		ct   string
		body func(*plan.Plan) []byte
	}{
		{"json", "application/json", func(p *plan.Plan) []byte { return planBody(t, p) }},
		{"binary", plan.BinaryContentType, func(p *plan.Plan) []byte {
			b, err := plan.AppendBinary(nil, p)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := &replayBody{data: tc.body(samples[0].Plan)}
			req := httptest.NewRequest(http.MethodPost, "/predict", nil)
			req.Header.Set("Content-Type", tc.ct)
			req.Body = body
			w := &nullResponseWriter{h: make(http.Header)}
			do := func() {
				body.off = 0
				s.handlePredict(w, req)
			}
			do() // warm: populates the body cache and the pools
			if avg := testing.AllocsPerRun(200, do); avg != 0 {
				t.Fatalf("cache-hit /predict allocates %.2f/op, want 0", avg)
			}
		})
	}
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
