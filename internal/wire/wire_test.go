package wire

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dace/internal/plan"
)

func TestQueryParam(t *testing.T) {
	for _, tc := range []struct{ query, name, want string }{
		{"format=pg&database=prod", "format", "pg"},
		{"format=pg&database=prod", "database", "prod"},
		{"format=pg", "database", ""},
		{"", "format", ""},
		{"format", "format", ""},
		{"xformat=pg", "format", ""},
		{"database=a%20b", "database", "a b"},
		{"database=a+b", "database", "a b"},
		{"format=plan&format=pg", "format", "plan"},
	} {
		if got := QueryParam(tc.query, tc.name); got != tc.want {
			t.Errorf("QueryParam(%q, %q) = %q, want %q", tc.query, tc.name, got, tc.want)
		}
	}
}

// TestParseParams: the negotiation every endpoint shares — which format and
// encoding a body is in, and whose tenant it is — and its two rejections.
func TestParseParams(t *testing.T) {
	for _, tc := range []struct {
		name, target, ctype, tenantHeader string
		want                              Params
		wantErr                           string
	}{
		{name: "defaults", target: "/predict", ctype: "application/json"},
		{name: "pg with database", target: "/predict?format=pg&database=prod", ctype: "application/json",
			want: Params{Format: "pg", Database: "prod", Tenant: "prod"}},
		{name: "binary with parameters", target: "/predict?format=plan", ctype: plan.BinaryContentType + "; v=1",
			want: Params{Format: "plan", Binary: true}},
		{name: "header wins over database", target: "/predict?database=prod", tenantHeader: "acme",
			want: Params{Database: "prod", Tenant: "acme", TenantExplicit: true}},
		{name: "empty header is no header", target: "/predict?database=prod", tenantHeader: "",
			want: Params{Database: "prod", Tenant: "prod"}},
		{name: "unknown format", target: "/predict?format=xml", wantErr: "unknown format (want plan or pg)"},
		{name: "binary pg", target: "/predict/batch?format=pg", ctype: plan.BinaryContentType,
			wantErr: "binary plan encoding cannot carry pg explain output"},
	} {
		r := httptest.NewRequest(http.MethodPost, tc.target, nil)
		r.Header.Set("Content-Type", tc.ctype)
		r.Header.Set("X-DACE-Tenant", tc.tenantHeader)
		got, err := ParseParams(r)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("%s: err %v, want %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%s: got %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
	}
}

// TestDecodersAgree: the same plan through the three decoders is the same
// checked FlatPlan — one fingerprint, so one cache entry and one replica.
func TestDecodersAgree(t *testing.T) {
	const planJSON = `{"database":"d","root":{"type":0,"est_rows":10000,"est_cost":1234.5,"actual_rows":9000,"actual_ms":40}}`
	const pgJSON = `[{"Plan": {"Node Type": "Seq Scan", "Total Cost": 1234.5, "Plan Rows": 10000,
		"Actual Total Time": 40.0, "Actual Rows": 9000, "Actual Loops": 1}}]`
	var s Scratch
	f, err := s.Decode([]byte(planJSON), Params{})
	if err != nil {
		t.Fatal(err)
	}
	want := f.Fingerprint
	frame, err := f.AppendBinaryFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	if f, err = s.Decode(frame, Params{Binary: true}); err != nil || f.Fingerprint != want {
		t.Fatalf("binary frame: fingerprint %v, err %v; want %v", f, err, want)
	}
	if f, err = s.Decode([]byte(pgJSON), Params{Format: "pg", Database: "d"}); err != nil || f.Fingerprint != want || f.Database() != "d" {
		t.Fatalf("pg explain: flat %v, err %v; want fingerprint %v", f, err, want)
	}
}

// TestPGFeaturesAreChecked: pg EXPLAIN is the one input that arrives as a
// tree, and nothing validates the tree — the flattened plan's Check is what
// refuses a feature the conversion overflowed (rows × loops), and the parser
// what refuses a null node.
func TestPGFeaturesAreChecked(t *testing.T) {
	var s Scratch
	for doc, want := range map[string]string{
		`[{"Plan": {"Node Type": "Seq Scan", "Total Cost": 1, "Plan Rows": 1, "Actual Rows": 1e308, "Actual Loops": 100}}]`: "plan node Seq Scan has a non-finite feature",
		`[{"Plan": {"Node Type": "Hash Join", "Plans": [null]}}]`:                                                           "pgexplain: null plan node",
	} {
		if f, err := s.Decode([]byte(doc), Params{Format: "pg"}); err == nil || err.Error() != want {
			t.Errorf("%s: decoded to %v, err %v; want %q", doc, f, err, want)
		}
	}
}

// TestDecodeBatchNamesTheEntry: a bad entry, or an error from the callback,
// fails the batch with that entry's index, on both batch encodings, and no
// entry after it is visited.
func TestDecodeBatchNamesTheEntry(t *testing.T) {
	good := `{"root":{"type":0,"est_rows":1,"est_cost":1}}`
	bad := `{"root":{"type":99,"est_rows":1,"est_cost":1}}`
	var s Scratch
	visited := 0
	count := func(*plan.FlatPlan) error { visited++; return nil }
	err := s.DecodeBatch([]byte("["+good+","+good+","+bad+","+good+"]"), Params{}, count)
	if err == nil || !strings.HasPrefix(err.Error(), "plan[2]: ") || visited != 2 {
		t.Fatalf("JSON batch: err %v after %d entries, want plan[2] after 2", err, visited)
	}

	f, err := s.Decode([]byte(good), Params{})
	if err != nil {
		t.Fatal(err)
	}
	frame := plan.AppendBinaryBatchCount(plan.AppendBinaryFrameHeader(nil), 3)
	for i := 0; i < 3; i++ {
		if frame, err = f.AppendBinaryBody(frame); err != nil {
			t.Fatal(err)
		}
	}
	visited = 0
	err = s.DecodeBatch(frame, Params{Binary: true}, func(*plan.FlatPlan) error {
		if visited++; visited == 2 {
			return http.ErrBodyNotAllowed
		}
		return nil
	})
	if err == nil || !strings.HasPrefix(err.Error(), "plan[1]: ") {
		t.Fatalf("binary batch: err %v, want the callback's error under plan[1]", err)
	}
}

// TestContentLengthMemoIsBounded: response lengths are memoized as header
// values only below maxMemoContentLength — one slot each in a fixed table,
// the same slice on every call — so a process that answers with ever-new
// large sizes (batches, big plans) grows nothing: a size at or above the
// bound is formatted afresh each time.
func TestContentLengthMemoIsBounded(t *testing.T) {
	for n := 0; n < maxMemoContentLength+1000; n += 7 {
		first, second := ContentLengthValue(n), ContentLengthValue(n)
		if len(first) != 1 || first[0] != strconv.Itoa(n) || len(second) != 1 || second[0] != first[0] {
			t.Fatalf("Content-Length %q then %q for a %d-byte response", first, second, n)
		}
		if memoized := &first[0] == &second[0]; memoized != (n < maxMemoContentLength) {
			t.Fatalf("length %d memoized: %v; the bound is %d", n, memoized, maxMemoContentLength)
		}
	}
}

// TestSharedStateUnderConcurrency drives the two pieces of state requests
// share — the pooled status recorder and the Content-Length memo — from
// several goroutines at once; its verdict is the race detector's.
func TestSharedStateUnderConcurrency(t *testing.T) {
	h := func(w http.ResponseWriter, r *http.Request) {
		body := bytes.Repeat([]byte{'x'}, len(r.URL.Path))
		w.Header()["Content-Length"] = ContentLengthValue(len(body))
		w.WriteHeader(http.StatusAccepted + len(body)%2)
		w.Write(body)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				path := "/" + strings.Repeat("p", (g+i)%17)
				r := httptest.NewRequest(http.MethodGet, path, nil)
				want := http.StatusAccepted + len(path)%2
				Instrument(h, func(code int, _ time.Duration) {
					if code != want {
						t.Errorf("observed status %d for %s, want %d", code, path, want)
					}
				})(httptest.NewRecorder(), r)
			}
		}(g)
	}
	wg.Wait()
}
