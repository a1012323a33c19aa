package telemetry

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// expositionLine matches one sample line of the text format:
// name{labels} value (labels optional).
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// validateExposition parses a full exposition document, enforcing the
// format invariants a Prometheus scraper relies on: every sample line
// parses, every metric was declared by a preceding # TYPE, histogram
// suffixes (_bucket/_sum/_count) attach to histogram families, and
// cumulative bucket counts are monotone.
func validateExposition(t *testing.T, text string) map[string]string {
	t.Helper()
	types := map[string]string{}
	var lastBucket uint64
	var lastBucketSeries string
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			continue
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if parts[3] != "counter" && parts[3] != "gauge" && parts[3] != "histogram" {
				t.Fatalf("line %d: unknown type %q", ln+1, parts[3])
			}
			if _, dup := types[parts[2]]; dup {
				t.Fatalf("line %d: family %s declared twice", ln+1, parts[2])
			}
			types[parts[2]] = parts[3]
		case line == "":
			t.Fatalf("line %d: blank line in exposition", ln+1)
		default:
			if !expositionLine.MatchString(line) {
				t.Fatalf("line %d: unparseable sample %q", ln+1, line)
			}
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			base, suffix := name, ""
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(name, sfx) && types[strings.TrimSuffix(name, sfx)] == "histogram" {
					base, suffix = strings.TrimSuffix(name, sfx), sfx
				}
			}
			typ, ok := types[base]
			if !ok {
				t.Fatalf("line %d: sample %s precedes its TYPE", ln+1, name)
			}
			if typ == "histogram" && suffix == "" {
				t.Fatalf("line %d: bare histogram sample %q", ln+1, line)
			}
			if suffix == "_bucket" {
				val := line[strings.LastIndexByte(line, ' ')+1:]
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					t.Fatalf("line %d: bucket count %q: %v", ln+1, val, err)
				}
				serie := line[:strings.Index(line, `le="`)]
				if serie == lastBucketSeries && n < lastBucket {
					t.Fatalf("line %d: cumulative bucket counts not monotone", ln+1)
				}
				lastBucket, lastBucketSeries = n, serie
			}
		}
	}
	return types
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("dace_test_requests_total", "Requests.", Label{"endpoint", "/predict"}, Label{"code", "2xx"})
	for i := 0; i < 7; i++ {
		c.Inc()
	}
	reg.Counter("dace_test_requests_total", "Requests.", Label{"endpoint", "/predict"}, Label{"code", "4xx"}).Inc()
	g := reg.Gauge("dace_test_depth", "Queue depth.")
	g.Set(3)
	reg.GaugeFunc("dace_test_heap_bytes", "Sampled at scrape.", func() float64 { return 1024 })
	reg.CounterFunc("dace_test_hits_total", "Bridged atomic.", func() uint64 { return 99 })
	h := reg.Histogram("dace_test_latency_seconds", "Latency.", LatencyBounds(), Label{"endpoint", "/predict"})
	h.Observe(100e-6)
	h.Observe(2e-3)
	h.Observe(2e-3)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	types := validateExposition(t, text)
	if types["dace_test_requests_total"] != "counter" || types["dace_test_latency_seconds"] != "histogram" {
		t.Fatalf("family types: %v", types)
	}
	for _, want := range []string{
		`dace_test_requests_total{endpoint="/predict",code="2xx"} 7`,
		`dace_test_requests_total{endpoint="/predict",code="4xx"} 1`,
		"dace_test_depth 3",
		"dace_test_heap_bytes 1024",
		"dace_test_hits_total 99",
		`dace_test_latency_seconds_count{endpoint="/predict"} 3`,
		`dace_test_latency_seconds_bucket{endpoint="/predict",le="+Inf"} 3`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// 100µs is under the 2^-12 (~244µs) bound; both 2ms observations are
	// under 2^-8 (~3.9ms).
	le := func(e int) string {
		return `le="` + formatFloat(math.Ldexp(1, e)) + `"`
	}
	if !strings.Contains(text, `dace_test_latency_seconds_bucket{endpoint="/predict",`+le(-12)+`} 1`) {
		t.Fatalf("le=2^-12 bucket wrong:\n%s", text)
	}
	if !strings.Contains(text, `dace_test_latency_seconds_bucket{endpoint="/predict",`+le(-8)+`} 3`) {
		t.Fatalf("le=2^-8 bucket wrong:\n%s", text)
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dace_test_esc_total", "", Label{"q", "a\"b\\c\nd"})
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `dace_test_esc_total{q="a\"b\\c\nd"} 0`
	if !strings.Contains(b.String(), want+"\n") {
		t.Fatalf("escaping wrong:\n%s", b.String())
	}
	validateExposition(t, b.String())
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	reg := NewRegistry()
	reg.Counter("dace_ok_total", "")
	mustPanic("bad name", func() { reg.Counter("0bad", "") })
	mustPanic("dup series", func() { reg.Counter("dace_ok_total", "") })
	mustPanic("kind clash", func() { reg.Gauge("dace_ok_total", "") })
	mustPanic("empty bounds", func() { reg.Histogram("dace_h", "", nil) })
	mustPanic("unsorted bounds", func() { reg.Histogram("dace_h", "", []float64{2, 1}) })
	reg.Histogram("dace_h2", "", []float64{1, 2}, Label{"a", "x"})
	mustPanic("bounds clash", func() { reg.Histogram("dace_h2", "", []float64{1, 4}, Label{"a", "y"}) })
}

// TestNilRegistry: a nil registry hands out working (just unexported)
// instruments, so wiring code can be telemetry-optional without branches.
func TestNilRegistry(t *testing.T) {
	var reg *Registry
	c := reg.Counter("anything", "")
	c.Inc()
	if c.Load() != 1 {
		t.Fatal("nil-registry counter broken")
	}
	reg.Histogram("h", "", LatencyBounds()).Observe(1)
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}
