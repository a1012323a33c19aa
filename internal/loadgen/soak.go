package loadgen

import "time"

// The soak mode: one open-loop run, minutes long, sliced into fixed windows
// while it runs. Aggregate percentiles over a whole run average a transient
// away — a hot-swap stall, a cache turnover storm, a fine-tune's CPU burst —
// and the window table is where one shows up. Soak reports the windows; it
// judges none of them.

// SoakConfig configures a soak: one run of Options, cut into windows.
type SoakConfig struct {
	Options
	// Window is the statistics window (default 1s).
	Window time.Duration
	// Logf, when set, receives one line per window as it closes.
	Logf func(format string, args ...any)
}

// WindowStats is one statistics window of a soak run.
type WindowStats struct {
	Index         int
	StartS        float64 // window start, seconds from run start
	Offered       int64
	OK            int64
	Backpressured int64
	Dropped       int64
	Timeouts      int64
	Errors        int64
	QPS           float64 // completed OK / window
	P50MS         float64 // windowed, from snapshot subtraction
	P99MS         float64
}

// SoakResult is a completed soak run: the run's totals and its windows.
type SoakResult struct {
	Run     Result
	Windows []WindowStats
}

// Soak executes one run and slices it into windows. It blocks for the full
// duration plus straggler drain.
func Soak(cfg SoakConfig) SoakResult {
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	runner := NewRunner(cfg.Options)
	// The window loop: snapshot-subtract counters and histogram from a
	// baseline taken before Run starts, so the first window holds every
	// request from the first on. It runs until the runner finishes (arrival
	// window closed and stragglers drained), so the last window holds the
	// drain and the windows sum to the run.
	prevCounts, prevSnap := runner.Snapshot()
	done := make(chan Result, 1)
	go func() { done <- runner.Run() }()

	var windows []WindowStats
	tick := time.NewTicker(cfg.Window)
	defer tick.Stop()

	var run Result
	for running := true; running; {
		select {
		case run = <-done:
			running = false
		case <-tick.C:
		}
		counts, snap := runner.Snapshot()
		wsnap := snap
		wsnap.Sub(&prevSnap)
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
		}
		prevCounts, prevSnap = counts, snap
		windows = append(windows, w)
		if cfg.Logf != nil {
			cfg.Logf("soak: w%03d qps=%.0f p50=%.2fms p99=%.2fms bp=%d drop=%d err=%d",
				w.Index, w.QPS, w.P50MS, w.P99MS, w.Backpressured, w.Dropped, w.Errors+w.Timeouts)
		}
	}
	return SoakResult{Run: run, Windows: windows}
}
