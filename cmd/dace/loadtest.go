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
// stalled client (coordinated omission). Reports go to stdout as Markdown,
// with optional CSV, and a committed baseline enables Mann-Whitney
// regression verdicts.
//
//	dace loadtest -url http://localhost:8080/predict -schedule const:500 -duration 30s
//	dace loadtest -url ... -runs 5 -baseline load-baseline.json -check
//	dace loadtest -url ... -soak -duration 3m -schedule sine:400:200:30s
func cmdLoadtest(args []string) {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	rawURL := fs.String("url", "http://localhost:8080/predict", "target endpoint (daced replica or gateway)")
	spec := fs.String("schedule", "const:200", "arrival schedule: const:QPS, ramp:FROM-TO, sine:BASE:AMP:PERIOD")
	duration := fs.Duration("duration", 10*time.Second, "arrival window per run")
	runs := fs.Int("runs", 1, "measurement runs (several enable dispersion + significance stats)")
	inflight := fs.Int("inflight", 1024, "max in-flight requests; excess arrivals are shed and counted")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request timeout")
	binary := fs.Bool("binary", false, "post compact binary frames instead of JSON")
	db := fs.String("db", "airline", "benchmark database for synthesized request plans")
	queries := fs.Int("queries", 64, "distinct plans in the request mix")
	tenants := fs.String("tenants", "", "comma-separated tenant IDs for a zipf-skewed multi-tenant mix")
	csvPath := fs.String("csv", "", "write per-run (or per-window, with -soak) CSV here")
	mdPath := fs.String("md", "", "write the Markdown report here (default stdout only)")
	baselinePath := fs.String("baseline", "", "baseline JSON to compare against (see -save-baseline)")
	saveBaseline := fs.String("save-baseline", "", "write this run set as the new baseline JSON")
	soak := fs.Bool("soak", false, "soak mode: windowed stats + latency-cliff/creep gates instead of run-set stats")
	window := fs.Duration("window", time.Second, "soak statistics window")
	p99Ratio := fs.Float64("p99-ratio", 2, "soak no-cliff gate: max windowed P99 / median windowed P99")
	check := fs.Bool("check", false, "exit 1 on failed soak gates or significant latency regression vs -baseline")
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

	var md strings.Builder
	exitCode := 0
	if *soak {
		res := loadgen.Soak(loadgen.SoakConfig{
			Target:      target,
			Schedule:    sched,
			Duration:    *duration,
			NewRequest:  newReq,
			MaxInflight: *inflight,
			Window:      *window,
			P99Ratio:    *p99Ratio,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		// Note: against a remote target the heap-creep gate watches this
		// client process, not the server — flat unless the generator itself
		// leaks. Server-side creep is TestDriftSoakPromotion's job
		// (internal/serve), which soaks the handler in process.
		if err := loadgen.WriteSoakMarkdown(&md, *spec, res); err != nil {
			fatal(err)
		}
		writeCSV(*csvPath, func(f *os.File) error { return loadgen.WriteSoakCSV(f, res) })
		if *check && !res.Passed {
			exitCode = 1
		}
	} else {
		results := make([]loadgen.Result, 0, *runs)
		for r := 0; r < *runs; r++ {
			fmt.Fprintf(os.Stderr, "loadtest: run %d/%d (%s for %s)\n", r+1, *runs, *spec, *duration)
			results = append(results, loadgen.Run(loadgen.Options{
				Target:      target,
				Schedule:    sched,
				Duration:    *duration,
				NewRequest:  newReq,
				MaxInflight: *inflight,
			}))
		}
		var comps []loadgen.Comparison
		if *baselinePath != "" {
			base, err := loadgen.LoadBaseline(*baselinePath)
			if err != nil {
				fatal(err)
			}
			comps = loadgen.CompareRuns(results, base, 0.05)
		}
		if err := loadgen.WriteRunMarkdown(&md, *rawURL, *spec, results, comps); err != nil {
			fatal(err)
		}
		writeCSV(*csvPath, func(f *os.File) error { return loadgen.WriteRunCSV(f, results) })
		if *saveBaseline != "" {
			if err := loadgen.SaveBaseline(*saveBaseline, *rawURL, *spec, results,
				time.Now().UTC().Format(time.RFC3339)); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "loadtest: baseline saved to %s\n", *saveBaseline)
		}
		if *check {
			for _, c := range comps {
				// Only latency growth is a regression; faster is fine.
				if c.Significant && strings.HasSuffix(c.Metric, "_ms") && c.DeltaPct > 0 {
					fmt.Fprintf(os.Stderr, "loadtest: REGRESSION %s %+.1f%% (p=%.3f, %s effect)\n",
						c.Metric, c.DeltaPct, c.MW.P, c.Effect)
					exitCode = 1
				}
			}
		}
	}

	fmt.Print(md.String())
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(md.String()), 0o644); err != nil {
			fatal(err)
		}
	}
	os.Exit(exitCode)
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

// writeCSV opens path (when set) and streams one CSV through emit.
func writeCSV(path string, emit func(*os.File) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := emit(f); err != nil {
		fatal(err)
	}
}
