package loadgen

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// WriteRunMarkdown renders the one load report: a row per run, the spread
// across runs when there are several, and — for a soak — the windows of its
// one run. It reports what was measured and judges none of it.
func WriteRunMarkdown(w io.Writer, name, schedule string, runs []Result, windows []WindowStats) error {
	var b strings.Builder
	fmt.Fprintf(&b, "## Load report: %s\n\n", name)
	fmt.Fprintf(&b, "Schedule `%s`, %d run(s); latency is charged from each request's intended start.\n\n", schedule, len(runs))
	fmt.Fprintln(&b, "| run | offered | offered qps | ok | achieved qps | backpressured | dropped | err+timeout | p50 ms | p99 ms | p99.9 ms |")
	fmt.Fprintln(&b, "|----:|--------:|------------:|---:|-------------:|--------------:|--------:|------------:|-------:|-------:|---------:|")
	var series [4][]float64 // per run: p50, p99, p99.9 ms and achieved qps
	for i, r := range runs {
		s := SummarizeSnapshot(r.Hist)
		fmt.Fprintf(&b, "| %d | %d | %.0f | %d | %.0f | %d | %d | %d | %.3f | %.3f | %.3f |\n",
			i, r.Offered, r.OfferedQPS, r.OK, r.AchievedQPS, r.Backpressured, r.Dropped,
			r.Errors+r.Timeouts, s.P50, s.P99, s.P999)
		for k, v := range []float64{s.P50, s.P99, s.P999, r.AchievedQPS} {
			series[k] = append(series[k], v)
		}
	}
	fmt.Fprintln(&b)

	if len(runs) > 1 {
		fmt.Fprintln(&b, "Across runs:")
		fmt.Fprintln(&b)
		fmt.Fprintln(&b, "| metric | mean | min | max | CV |")
		fmt.Fprintln(&b, "|--------|-----:|----:|----:|---:|")
		for k, metric := range []string{"p50_ms", "p99_ms", "p999_ms", "achieved_qps"} {
			s := Summarize(series[k])
			fmt.Fprintf(&b, "| %s | %.3f | %.3f | %.3f | %.1f%% |\n", metric, s.Mean, s.Min, s.Max, s.CV*100)
		}
		fmt.Fprintln(&b)
	}

	if len(windows) > 0 {
		fmt.Fprintln(&b, "| w | start s | offered | ok | qps | p50 ms | p99 ms | bp | drop | err+timeout |")
		fmt.Fprintln(&b, "|--:|--------:|--------:|---:|----:|-------:|-------:|---:|-----:|------------:|")
		for _, win := range windows {
			fmt.Fprintf(&b, "| %d | %.1f | %d | %d | %.0f | %.3f | %.3f | %d | %d | %d |\n",
				win.Index, win.StartS, win.Offered, win.OK, win.QPS, win.P50MS, win.P99MS,
				win.Backpressured, win.Dropped, win.Errors+win.Timeouts)
		}
		fmt.Fprintln(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ZipfTenants builds a NewRequest wrapper that assigns each request a
// tenant drawn from a Zipf-like distribution over `tenants` (rank-1/s
// weights, s=1.1), the skew real multi-tenant serving sees: a few hot
// databases and a long tail. Deterministic in i, so runs are repeatable.
func ZipfTenants(tenants []string, inner func(i int64) *Request) func(i int64) *Request {
	if len(tenants) == 0 {
		return inner
	}
	// Precompute the cumulative rank-weight table once.
	cum := make([]float64, len(tenants))
	total := 0.0
	for i := range tenants {
		total += 1 / math.Pow(float64(i+1), 1.1)
		cum[i] = total
	}
	return func(i int64) *Request {
		req := inner(i)
		// Low-discrepancy scan over (0,1): the golden-ratio sequence gives a
		// deterministic, well-mixed tenant stream without math/rand state.
		u := float64((uint64(i)*0x9E3779B97F4A7C15)>>11) / float64(1<<53) * total
		k := sort.SearchFloat64s(cum, u)
		if k >= len(tenants) {
			k = len(tenants) - 1
		}
		req.Tenant = tenants[k]
		return req
	}
}
