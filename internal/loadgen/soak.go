package loadgen

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The soak runner: minutes-scale sustained open-loop traffic with
// mid-flight events (an adapt promotion, a tenant adapter hot-swap, an
// injected workload drift), cut into fixed windows. Two properties are
// gated, because they are the two ways a serving process quietly rots
// under long-running load:
//
//   - No latency cliff: the worst windowed P99 must stay within a bounded
//     ratio of the median windowed P99. A model hot-swap that stalls the
//     pipeline, a cache flush that triggers a recompute storm, or a
//     fine-tune that starves the serving path all show up here and nowhere
//     else — aggregate P99 over the whole run averages cliffs away.
//   - No memory creep: the post-GC live heap, sampled at every window
//     edge, must have ~zero slope over the measurement windows. A leak of
//     one pooled buffer per promotion is invisible in a 5-second bench and
//     unmissable here.

// SoakEvent is a mid-run action: Do fires in its own goroutine once the
// run clock passes After, and the window containing it is annotated in the
// report (so a P99 excursion can be read against what caused it).
type SoakEvent struct {
	After time.Duration
	Name  string
	Do    func() error
}

// SoakConfig configures a soak scenario.
type SoakConfig struct {
	Target      Target
	Schedule    Schedule
	Duration    time.Duration
	NewRequest  func(i int64) *Request
	MaxInflight int
	// Window is the statistics window (default 1s).
	Window time.Duration
	// Events fire mid-run at their After offsets.
	Events []SoakEvent
	// WarmupWindows excludes at least this many leading windows from the
	// gates (default 3). The effective cut is the larger of this and the
	// stabilization point WarmupCut detects on the windowed throughput.
	WarmupWindows int
	// P99Ratio is the no-cliff gate: max windowed P99 / median windowed
	// P99 over the measurement windows must not exceed it (default 2).
	P99Ratio float64
	// HeapSlope is the no-creep gate: the OLS slope of post-GC live-heap
	// bytes over the measurement windows must stay below this, in
	// bytes/second (default 128 KiB/s).
	HeapSlope float64
	// DisableGC skips the forced GC at window edges. The live-heap series
	// then rides the collector's sawtooth and the creep gate loosens to a
	// trend check; keep GC on unless the scenario is latency-critical
	// below the millisecond.
	DisableGC bool
	// Logf, when set, receives one line per window and per event.
	Logf func(format string, args ...any)
}

// WindowStats is one statistics window of a soak run.
type WindowStats struct {
	Index         int     `json:"index"`
	StartS        float64 `json:"start_s"` // window start, seconds from run start
	Offered       int64   `json:"offered"`
	OK            int64   `json:"ok"`
	Backpressured int64   `json:"backpressured"`
	Dropped       int64   `json:"dropped"`
	Timeouts      int64   `json:"timeouts"`
	Errors        int64   `json:"errors"`
	QPS           float64 `json:"qps"`    // completed OK / window
	P50MS         float64 `json:"p50_ms"` // windowed, from snapshot subtraction
	P99MS         float64 `json:"p99_ms"`
	HeapBytes     uint64  `json:"heap_bytes"`   // post-GC live heap at window close
	AllocPerOK    float64 `json:"alloc_per_ok"` // bytes allocated per OK in the window
	Event         string  `json:"event,omitempty"`
}

// GateResult is one soak gate's verdict.
type GateResult struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Limit  float64 `json:"limit"`
	Passed bool    `json:"passed"`
	Detail string  `json:"detail"`
}

// SoakResult is a completed soak run.
type SoakResult struct {
	Run       Result        `json:"run"`
	Windows   []WindowStats `json:"windows"`
	WarmupCut int           `json:"warmup_cut"` // windows excluded from the gates
	Gates     []GateResult  `json:"gates"`
	Passed    bool          `json:"passed"`
}

// Soak executes the scenario and evaluates the gates. It blocks for the
// full duration plus straggler drain.
func Soak(cfg SoakConfig) SoakResult {
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	if cfg.WarmupWindows <= 0 {
		cfg.WarmupWindows = 3
	}
	if cfg.P99Ratio <= 0 {
		cfg.P99Ratio = 2
	}
	if cfg.HeapSlope <= 0 {
		cfg.HeapSlope = 128 << 10
	}

	runner := NewRunner(Options{
		Target:      cfg.Target,
		Schedule:    cfg.Schedule,
		Duration:    cfg.Duration,
		NewRequest:  cfg.NewRequest,
		MaxInflight: cfg.MaxInflight,
	})

	// Mid-run events: fired on their own timers, logged with their actual
	// fire time so each lands in the window that contained it.
	var evMu sync.Mutex
	type firedEvent struct {
		at   time.Duration
		name string
	}
	var fired []firedEvent
	start := time.Now()
	timers := make([]*time.Timer, 0, len(cfg.Events))
	for _, ev := range cfg.Events {
		ev := ev
		timers = append(timers, time.AfterFunc(ev.After, func() {
			// Record at fire time, not completion: a slow Do (a
			// fine-tune, a staged restart) must annotate the window its
			// effects started in, not whichever one it happened to end in.
			at := time.Since(start)
			evMu.Lock()
			fired = append(fired, firedEvent{at, ev.Name})
			evMu.Unlock()
			if cfg.Logf != nil {
				cfg.Logf("soak: event %q at %.1fs", ev.Name, at.Seconds())
			}
			if err := ev.Do(); err != nil {
				failAt := time.Since(start)
				evMu.Lock()
				fired = append(fired, firedEvent{failAt, ev.Name + " FAILED: " + err.Error()})
				evMu.Unlock()
				if cfg.Logf != nil {
					cfg.Logf("soak: event %q failed at %.1fs: %v", ev.Name, failAt.Seconds(), err)
				}
			}
		}))
	}
	defer func() {
		for _, t := range timers {
			t.Stop()
		}
	}()

	done := make(chan Result, 1)
	go func() { done <- runner.Run() }()

	// The window loop: snapshot-subtract counters and histogram, force a
	// GC, read the live heap. Runs until the runner finishes (arrival
	// window closed and stragglers drained).
	var windows []WindowStats
	prevCounts, prevSnap := runner.Snapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	prevAlloc := ms.TotalAlloc
	tick := time.NewTicker(cfg.Window)
	defer tick.Stop()

	var run Result
	running := true
	for running {
		select {
		case run = <-done:
			running = false
		case <-tick.C:
		}
		counts, snap := runner.Snapshot()
		wsnap := snap
		wsnap.Sub(&prevSnap)
		if !cfg.DisableGC {
			runtime.GC()
		}
		runtime.ReadMemStats(&ms)
		w := WindowStats{
			Index:         len(windows),
			StartS:        float64(len(windows)) * cfg.Window.Seconds(),
			Offered:       counts.Offered - prevCounts.Offered,
			OK:            counts.OK - prevCounts.OK,
			Backpressured: counts.Backpressured - prevCounts.Backpressured,
			Dropped:       counts.Dropped - prevCounts.Dropped,
			Timeouts:      counts.Timeouts - prevCounts.Timeouts,
			Errors:        counts.Errors - prevCounts.Errors,
			QPS:           float64(counts.OK-prevCounts.OK) / cfg.Window.Seconds(),
			P50MS:         wsnap.Quantile(0.50) * 1e3,
			P99MS:         wsnap.Quantile(0.99) * 1e3,
			HeapBytes:     ms.HeapAlloc,
		}
		if w.OK > 0 {
			w.AllocPerOK = float64(ms.TotalAlloc-prevAlloc) / float64(w.OK)
		}
		// Every event still in the fired log belongs to this window: the log
		// is drained at each window close, so entries are exactly the events
		// since the previous close.
		evMu.Lock()
		for _, ev := range fired {
			if w.Event != "" {
				w.Event += "; "
			}
			w.Event += fmt.Sprintf("%s @%.1fs", ev.name, ev.at.Seconds())
		}
		fired = fired[:0]
		evMu.Unlock()
		prevCounts, prevSnap, prevAlloc = counts, snap, ms.TotalAlloc
		windows = append(windows, w)
		if cfg.Logf != nil {
			cfg.Logf("soak: w%03d qps=%.0f p50=%.2fms p99=%.2fms heap=%.1fMB bp=%d drop=%d err=%d %s",
				w.Index, w.QPS, w.P50MS, w.P99MS, float64(w.HeapBytes)/(1<<20),
				w.Backpressured, w.Dropped, w.Errors+w.Timeouts, w.Event)
		}
	}

	res := SoakResult{Run: run, Windows: windows}
	res.WarmupCut, res.Gates = soakGates(windows, cfg)
	res.Passed = true
	for _, g := range res.Gates {
		res.Passed = res.Passed && g.Passed
	}
	return res
}

// soakGates evaluates the no-cliff, no-creep, and no-failure gates over
// the post-warmup windows.
// eventAdjacent reports whether window idx, its predecessor, or its
// successor carries a fired event annotation.
func eventAdjacent(windows []WindowStats, idx int) bool {
	for _, w := range windows {
		if w.Event != "" && w.Index >= idx-1 && w.Index <= idx+1 {
			return true
		}
	}
	return false
}

func soakGates(windows []WindowStats, cfg SoakConfig) (int, []GateResult) {
	// Warmup: the configured floor, or later if the throughput series is
	// still stabilizing (cache fill, connection ramp, JIT-ish first GCs).
	qps := make([]float64, len(windows))
	for i, w := range windows {
		qps[i] = w.QPS
	}
	cut := cfg.WarmupWindows
	if det := WarmupCut(qps, 5, 0.15); det > cut {
		cut = det
	}
	if cut >= len(windows) {
		cut = len(windows) - 1
	}
	if cut < 0 {
		cut = 0
	}
	meas := windows[cut:]

	var gates []GateResult

	// No-cliff: max windowed P99 vs the median windowed P99. Windows with
	// too few completions for a P99 to mean anything are skipped.
	//
	// The gate exists to catch cliffs *caused by the scenario's events* (a
	// hot-swap stall, a cache-flush storm) — and those are event-adjacent
	// by construction. A window nowhere near any event can still blow out
	// on a shared host when the whole process is descheduled for one slice,
	// which says nothing about the system under test. So: event-adjacent
	// windows (the event's window ±1) are held to the strict ratio, and
	// exactly one non-adjacent outlier is excused if every other window is
	// within the ratio — the excusal is spelled out in the gate detail, not
	// silently absorbed.
	var p99s []float64
	worst, worstIdx := 0.0, -1
	second, secondIdx := 0.0, -1
	for _, w := range meas {
		if w.OK < 20 {
			continue
		}
		p99s = append(p99s, w.P99MS)
		if w.P99MS > worst {
			second, secondIdx = worst, worstIdx
			worst, worstIdx = w.P99MS, w.Index
		} else if w.P99MS > second {
			second, secondIdx = w.P99MS, w.Index
		}
	}
	if len(p99s) == 0 {
		gates = append(gates, GateResult{
			Name: "p99_ratio", Limit: cfg.P99Ratio,
			Detail: "no window had enough completions to evaluate",
		})
	} else {
		sort.Float64s(p99s)
		median := p99s[len(p99s)/2]
		ratio := 0.0
		if median > 0 {
			ratio = worst / median
		}
		passed := ratio <= cfg.P99Ratio
		detail := fmt.Sprintf("worst window P99 %.2fms (w%03d) vs median %.2fms", worst, worstIdx, median)
		if !passed && median > 0 && !eventAdjacent(windows, worstIdx) && second/median <= cfg.P99Ratio {
			passed = true
			ratio = second / median
			detail = fmt.Sprintf("w%03d P99 %.2fms excused as ambient (no event within ±1 window); next-worst w%03d %.2fms vs median %.2fms",
				worstIdx, worst, secondIdx, second, median)
		}
		gates = append(gates, GateResult{
			Name: "p99_ratio", Value: ratio, Limit: cfg.P99Ratio,
			Passed: passed,
			Detail: detail,
		})
	}

	// No-creep: OLS slope of the post-GC live heap across measurement
	// windows. Negative slopes (heap shrinking) pass trivially.
	xs := make([]float64, len(meas))
	ys := make([]float64, len(meas))
	for i, w := range meas {
		xs[i] = w.StartS
		ys[i] = float64(w.HeapBytes)
	}
	slope := Slope(xs, ys)
	gates = append(gates, GateResult{
		Name: "heap_slope", Value: slope, Limit: cfg.HeapSlope,
		Passed: slope <= cfg.HeapSlope,
		Detail: fmt.Sprintf("live heap %.0f B/s over %d windows (%.1f→%.1f MB)",
			slope, len(meas), float64(meas[0].HeapBytes)/(1<<20), float64(meas[len(meas)-1].HeapBytes)/(1<<20)),
	})

	// No-failure: transport errors and timeouts are never acceptable in a
	// soak — backpressure (503) and shed arrivals have their own columns
	// and are the scenario designer's call, but a failed request is a bug.
	var errs int64
	for _, w := range meas {
		errs += w.Errors + w.Timeouts
	}
	gates = append(gates, GateResult{
		Name: "errors", Value: float64(errs), Limit: 0, Passed: errs == 0,
		Detail: fmt.Sprintf("%d transport errors/timeouts after warmup", errs),
	})

	return cut, gates
}
