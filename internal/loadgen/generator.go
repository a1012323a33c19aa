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
	// Hist, when non-nil, receives every successful request's
	// intended-start→completion latency in seconds. Nil allocates one
	// internally; pass an external histogram to aggregate across runs.
	Hist *telemetry.Histogram
}

// Counts are the per-class outcome counters of a run, all cumulative.
type Counts struct {
	Offered       int64 `json:"offered"`       // arrivals the schedule generated
	Sent          int64 `json:"sent"`          // arrivals that acquired an in-flight slot
	OK            int64 `json:"ok"`            // 2xx responses
	Backpressured int64 `json:"backpressured"` // 503/429 responses
	Dropped       int64 `json:"dropped"`       // arrivals shed: in-flight window full
	Timeouts      int64 `json:"timeouts"`      // transport timeouts
	Errors        int64 `json:"errors"`        // other transport errors + unexpected statuses
	InflightHWM   int64 `json:"inflight_hwm"`  // in-flight high-watermark
}

// Result is one completed run.
type Result struct {
	Counts
	Elapsed     time.Duration               `json:"elapsed_ns"`
	OfferedQPS  float64                     `json:"offered_qps"`  // Offered / Elapsed
	AchievedQPS float64                     `json:"achieved_qps"` // OK / Elapsed
	Hist        telemetry.HistogramSnapshot `json:"-"`            // successful-request latency, seconds
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
	h := opt.Hist
	if h == nil {
		h = &telemetry.Histogram{}
	}
	return &Runner{opt: opt, hist: h}
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
			switch {
			case err != nil && isTimeout(err):
				r.timeouts.Add(1)
			case err != nil:
				r.errs.Add(1)
			case resp.Status >= 200 && resp.Status < 300:
				// Latency from the *intended* start: queueing delay anywhere
				// — dispatch backlog, server queue, slow response — lands in
				// the distribution.
				r.hist.Observe(time.Since(intended).Seconds())
				r.ok.Add(1)
			case resp.Status == http.StatusServiceUnavailable || resp.Status == http.StatusTooManyRequests:
				r.backp.Add(1)
			default:
				r.errs.Add(1)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

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

// ClosedLoop measures the same target the way benchmark/'s serve workloads
// do: `clients` goroutines in a tight request/response loop, `total`
// requests, latency measured from each request's *send* (not from a
// schedule). It exists as the comparison arm for coordinated-omission
// sensitivity: at saturation its percentiles stay flattering — every stall
// suppresses exactly the requests that would have recorded it — while the
// open-loop runner's percentiles absorb the queueing delay.
func ClosedLoop(target Target, newRequest func(i int64) *Request, clients int, total int64) Result {
	hist := &telemetry.Histogram{}
	var next, okN, backpN, errN, toN atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				t0 := time.Now()
				resp, err := target.Do(newRequest(i))
				switch {
				case err != nil && isTimeout(err):
					toN.Add(1)
				case err != nil:
					errN.Add(1)
				case resp.Status >= 200 && resp.Status < 300:
					hist.Observe(time.Since(t0).Seconds())
					okN.Add(1)
				case resp.Status == http.StatusServiceUnavailable || resp.Status == http.StatusTooManyRequests:
					backpN.Add(1)
				default:
					errN.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	counts := Counts{
		Offered:       total,
		Sent:          total,
		OK:            okN.Load(),
		Backpressured: backpN.Load(),
		Timeouts:      toN.Load(),
		Errors:        errN.Load(),
		InflightHWM:   int64(clients),
	}
	return Result{
		Counts:      counts,
		Elapsed:     elapsed,
		OfferedQPS:  float64(total) / elapsed.Seconds(),
		AchievedQPS: float64(counts.OK) / elapsed.Seconds(),
		Hist:        hist.Snapshot(),
	}
}
