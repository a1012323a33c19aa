package loadgen

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dace/internal/telemetry"
)

// Options configures one open-loop run.
type Options struct {
	Target   Target
	Schedule Schedule
	// Duration bounds the arrival window: the run dispatches every request
	// whose scheduled start falls inside it, then waits for in-flight
	// requests to complete.
	Duration time.Duration
	// NewRequest supplies the i-th request body. It is called from the
	// dispatch path and from worker goroutines, so it must be safe for
	// concurrent use and should not block (pre-encode bodies).
	NewRequest func(i int64) *Request
	// MaxInflight bounds concurrent requests (default 1024). An arrival
	// that finds the window full is dropped and counted — the arrival
	// clock is never blocked.
	MaxInflight int
}

// Counts are the per-class outcome counters of a run, all cumulative.
type Counts struct {
	Offered       int64 // arrivals the schedule generated
	Sent          int64 // arrivals that acquired an in-flight slot
	OK            int64 // 2xx responses
	Backpressured int64 // 503/429 responses
	Dropped       int64 // arrivals shed: in-flight window full
	Timeouts      int64 // transport timeouts
	Errors        int64 // other transport errors (a truncated body included) + unexpected statuses
	InflightHWM   int64 // in-flight high-watermark
}

// Result is one completed run.
type Result struct {
	Counts
	Elapsed     time.Duration
	OfferedQPS  float64                     // Offered / Elapsed
	AchievedQPS float64                     // OK / Elapsed
	Hist        telemetry.HistogramSnapshot // successful-request latency, seconds
}

// Runner executes one open-loop run. Create with NewRunner, start with
// Run; Snapshot may be called concurrently with Run for windowed views.
type Runner struct {
	opt  Options
	hist *telemetry.Histogram

	offered, sent, ok, backp, dropped, timeouts, errs atomic.Int64
	inflight, hwm                                     atomic.Int64
}

// NewRunner validates options and builds a runner.
func NewRunner(opt Options) *Runner {
	if opt.MaxInflight <= 0 {
		opt.MaxInflight = 1024
	}
	return &Runner{opt: opt, hist: &telemetry.Histogram{}}
}

// Snapshot returns the current counters and latency histogram, safe to
// call while Run is in progress — this is how the soak runner extracts
// per-window statistics without pausing traffic.
func (r *Runner) Snapshot() (Counts, telemetry.HistogramSnapshot) {
	return Counts{
		Offered:       r.offered.Load(),
		Sent:          r.sent.Load(),
		OK:            r.ok.Load(),
		Backpressured: r.backp.Load(),
		Dropped:       r.dropped.Load(),
		Timeouts:      r.timeouts.Load(),
		Errors:        r.errs.Load(),
		InflightHWM:   r.hwm.Load(),
	}, r.hist.Snapshot()
}

// Run executes the schedule: it dispatches every arrival inside the
// duration window at its intended time, bounds in-flight concurrency by
// shedding (never by stalling the clock), waits for stragglers, and
// returns the aggregated result.
func (r *Runner) Run() Result {
	sem := make(chan struct{}, r.opt.MaxInflight)
	var wg sync.WaitGroup
	start := time.Now()

	for i := int64(0); ; i++ {
		at := r.opt.Schedule.At(i)
		if at > r.opt.Duration {
			break
		}
		// Sleep until the intended start. A late wakeup (scheduler jitter,
		// or a previous same-tick arrival) dispatches immediately — the
		// deficit is charged to the request's measured latency, because the
		// intended time, not the actual dispatch time, is its start.
		if d := at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		r.offered.Add(1)
		select {
		case sem <- struct{}{}:
		default:
			// In-flight window full: shed this arrival. Dropping (with its
			// own counter) keeps the arrival process independent of server
			// speed; blocking here would be coordinated omission.
			r.dropped.Add(1)
			continue
		}
		wg.Add(1)
		intended := start.Add(at)
		go func(i int64) {
			defer func() {
				<-sem
				r.inflight.Add(-1)
				wg.Done()
			}()
			if cur := r.inflight.Add(1); cur > r.hwm.Load() {
				for {
					old := r.hwm.Load()
					if cur <= old || r.hwm.CompareAndSwap(old, cur) {
						break
					}
				}
			}
			r.sent.Add(1)
			resp, err := r.opt.Target.Do(r.opt.NewRequest(i))
			// Latency from the *intended* start: queueing delay anywhere —
			// dispatch backlog, server queue, slow response — lands in the
			// distribution.
			r.record(resp, err, intended)
		}(i)
	}
	wg.Wait()
	return r.result(time.Since(start))
}

// record classifies one completed request; a 2xx adds its latency since
// start to the histogram.
func (r *Runner) record(resp Response, err error, start time.Time) {
	switch {
	case err != nil && isTimeout(err):
		r.timeouts.Add(1)
	case err != nil:
		r.errs.Add(1)
	case resp.Status >= 200 && resp.Status < 300:
		r.hist.Observe(time.Since(start).Seconds())
		r.ok.Add(1)
	case resp.Status == http.StatusServiceUnavailable || resp.Status == http.StatusTooManyRequests:
		r.backp.Add(1)
	default:
		r.errs.Add(1)
	}
}

func (r *Runner) result(elapsed time.Duration) Result {
	counts, snap := r.Snapshot()
	return Result{
		Counts:      counts,
		Elapsed:     elapsed,
		OfferedQPS:  float64(counts.Offered) / elapsed.Seconds(),
		AchievedQPS: float64(counts.OK) / elapsed.Seconds(),
		Hist:        snap,
	}
}

// Run is the one-shot convenience wrapper around NewRunner(...).Run().
func Run(opt Options) Result { return NewRunner(opt).Run() }
