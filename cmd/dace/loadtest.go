package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dace/internal/dataset"
	"dace/internal/executor"
	"dace/internal/loadgen"
	"dace/internal/plan"
	"dace/internal/schema"
)

// cmdLoadtest drives a live daced replica or gateway with open-loop load:
// arrivals follow the -schedule regardless of how fast the server answers,
// and every latency is measured from the request's *intended* start, so
// queueing delay shows up in the percentiles instead of being hidden by a
// stalled client (coordinated omission). One Markdown report goes to
// stdout; the exit status is 1 if any request ended in a transport error, a
// timeout or an unexpected status. Comparing two builds is benchmark/'s job.
//
//	dace loadtest -url http://localhost:8080/predict -schedule const:500 -duration 30s -runs 5
//	dace loadtest -url ... -soak -duration 3m -schedule sine:400:200:30s
func cmdLoadtest(args []string) {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	rawURL := fs.String("url", "http://localhost:8080/predict", "target endpoint (daced replica or gateway)")
	spec := fs.String("schedule", "const:200", "arrival schedule: const:QPS, ramp:FROM-TO, sine:BASE:AMP:PERIOD")
	duration := fs.Duration("duration", 10*time.Second, "arrival window per run")
	runs := fs.Int("runs", 1, "measurement runs (several add a spread-across-runs table)")
	inflight := fs.Int("inflight", 1024, "max in-flight requests; excess arrivals are shed and counted")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request timeout")
	binary := fs.Bool("binary", false, "post compact binary frames instead of JSON")
	db := fs.String("db", "airline", "benchmark database for synthesized request plans")
	queries := fs.Int("queries", 64, "distinct plans in the request mix")
	tenants := fs.String("tenants", "", "comma-separated tenant IDs for a zipf-skewed multi-tenant mix")
	soak := fs.Bool("soak", false, "soak mode: one run, reported window by window")
	window := fs.Duration("window", time.Second, "soak statistics window")
	fs.Parse(args)

	sched, err := loadgen.ParseSchedule(*spec, *duration)
	if err != nil {
		fatal(err)
	}
	target, err := loadgen.NewHTTPTarget(*rawURL, *inflight, *timeout)
	if err != nil {
		fatal(err)
	}
	newReq := loadtestWorkload(*db, *queries, *binary)
	if *tenants != "" {
		ids := strings.Split(*tenants, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
		newReq = loadgen.ZipfTenants(ids, newReq)
	}
	opt := loadgen.Options{
		Target:      target,
		Schedule:    sched,
		Duration:    *duration,
		NewRequest:  newReq,
		MaxInflight: *inflight,
	}

	var results []loadgen.Result
	var windows []loadgen.WindowStats
	if *soak {
		res := loadgen.Soak(loadgen.SoakConfig{
			Options: opt,
			Window:  *window,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		results, windows = []loadgen.Result{res.Run}, res.Windows
	} else {
		for r := 0; r < *runs; r++ {
			fmt.Fprintf(os.Stderr, "loadtest: run %d/%d (%s for %s)\n", r+1, *runs, *spec, *duration)
			results = append(results, loadgen.Run(opt))
		}
	}
	if err := loadgen.WriteRunMarkdown(os.Stdout, *rawURL, *spec, results, windows); err != nil {
		fatal(err)
	}
	var errs, timeouts int64
	for _, r := range results {
		errs, timeouts = errs+r.Errors, timeouts+r.Timeouts
	}
	if errs+timeouts > 0 {
		fmt.Fprintf(os.Stderr, "loadtest: %d error(s), %d timeout(s)\n", errs, timeouts)
		os.Exit(1)
	}
}

// loadtestWorkload synthesizes a deterministic request mix from a benchmark
// database: n distinct plans, pre-encoded once (JSON or binary wire), cycled
// by request index.
func loadtestWorkload(db string, n int, binary bool) func(i int64) *loadgen.Request {
	samples, err := dataset.ComplexWorkload(schema.BenchmarkDB(db), n, executor.M1())
	if err != nil {
		fatal(err)
	}
	bodies := make([][]byte, len(samples))
	contentType := "application/json"
	for i, s := range samples {
		if binary {
			enc, err := plan.AppendBinary(nil, s.Plan)
			if err != nil {
				fatal(err)
			}
			bodies[i] = enc
			continue
		}
		var sb strings.Builder
		if err := s.Plan.WriteJSON(&sb); err != nil {
			fatal(err)
		}
		bodies[i] = []byte(sb.String())
	}
	if binary {
		contentType = plan.BinaryContentType
	}
	return func(i int64) *loadgen.Request {
		return &loadgen.Request{
			Body:        bodies[int(i)%len(bodies)],
			ContentType: contentType,
		}
	}
}
