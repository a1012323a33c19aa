package loadgen

import (
	"strings"
	"testing"
	"time"

	"dace/internal/telemetry"
)

// syntheticResult builds a Result whose histogram holds n samples at
// latency sec.
func syntheticResult(n int, sec float64) Result {
	h := &telemetry.Histogram{}
	for i := 0; i < n; i++ {
		h.Observe(sec)
	}
	return Result{
		Counts:      Counts{Offered: int64(n), Sent: int64(n), OK: int64(n)},
		Elapsed:     time.Second,
		OfferedQPS:  float64(n),
		AchievedQPS: float64(n),
		Hist:        h.Snapshot(),
	}
}

func TestRunMarkdown(t *testing.T) {
	runs := []Result{syntheticResult(100, 0.010), syntheticResult(100, 0.012)}
	windows := []WindowStats{
		{Index: 0, Offered: 60, OK: 60, QPS: 300},
		{Index: 1, StartS: 0.2, Offered: 40, OK: 39, QPS: 195, Timeouts: 1},
	}
	var md strings.Builder
	if err := WriteRunMarkdown(&md, "direct-serve", "const:200", runs, windows); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"## Load report: direct-serve", "Schedule `const:200`, 2 run(s)",
		"| 0 | 100 | 100 | 100 | 100 | 0 | 0 | 0 |", // offered, offered qps, ok, achieved qps, bp, drop, err+timeout
		"Across runs:", "| p99_ms |",
		"| 1 | 0.2 | 40 | 39 | 195 |", "| 0 | 0 | 1 |", // window 1: start, offered, ok, qps … bp, drop, err+timeout
	} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("Markdown missing %q:\n%s", want, md.String())
		}
	}

	// One run, no soak: neither the spread table nor the window table.
	md.Reset()
	if err := WriteRunMarkdown(&md, "direct-serve", "const:200", runs[:1], nil); err != nil {
		t.Fatal(err)
	}
	if s := md.String(); strings.Contains(s, "Across runs") || strings.Contains(s, "| w |") {
		t.Errorf("single-run report has a spread or window table:\n%s", s)
	}
}

func TestZipfTenants(t *testing.T) {
	tenants := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	gen := ZipfTenants(tenants, oneRequest)
	counts := map[string]int{}
	for i := int64(0); i < 4000; i++ {
		counts[gen(i).Tenant]++
	}
	if len(counts) != len(tenants) {
		t.Fatalf("only %d of %d tenants hit", len(counts), len(tenants))
	}
	// Zipf skew: rank 0 clearly hotter than rank 7.
	if counts["t0"] <= 2*counts["t7"] {
		t.Errorf("no skew: t0=%d t7=%d", counts["t0"], counts["t7"])
	}
	// Deterministic in i.
	if gen(42).Tenant != gen(42).Tenant {
		t.Error("ZipfTenants not deterministic")
	}
}
