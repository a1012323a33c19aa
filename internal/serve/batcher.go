package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dace/internal/core"
	"dace/internal/nn"
	"dace/internal/plan"
	"dace/internal/telemetry"
)

// batcher is the dynamic micro-batching stage: /predict cache misses
// enqueue onto a bounded channel, and a single collector goroutine drains
// up to maxBatch requests — waiting at most maxWait for stragglers after
// the first arrival — then fans the batch out across the server's worker
// pool, one tape-free flat forward per request. Under light load a request
// waits at most maxWait; under heavy load batches fill instantly and the
// wait never triggers, so throughput approaches the data-parallel batch
// rate. A full queue rejects instead of blocking (backpressure: the handler
// turns errQueueFull into 503 + Retry-After).
type batcher struct {
	srv      *Server
	maxBatch int
	maxWait  time.Duration
	queue    chan *batchReq

	// mu guards closed. submit holds it (shared) across the enqueue attempt
	// and close holds it (exclusive) before signalling stop, so every
	// request enqueued before shutdown is visible to the drain loop and
	// none can slip in after it.
	mu     sync.RWMutex
	closed bool
	stop   chan struct{}
	done   chan struct{}

	batches  atomic.Uint64
	requests atomic.Uint64
	rejected atomic.Uint64
	depthHWM atomic.Int64 // deepest the queue has ever been

	// Telemetry histograms, wired by newServerMetrics between newBatcher and
	// start — never written once the loop goroutine is running. Nil when
	// telemetry is off; run/submit then skip the timestamps entirely.
	sizeHist *telemetry.Histogram
	waitHist *telemetry.Histogram
}

// batchReq is one queued request; done is closed once preds/err are set.
// f is the submitter's decoded plan, not a copy: submit blocks until done,
// so the decoder arenas f aliases stay untouched for as long as the
// collector reads them. model is the tenant's adapter view, or nil for the
// server model — one queue serves every tenant. enq is the submit
// timestamp, set only when queue-wait telemetry is on.
type batchReq struct {
	f     *plan.FlatPlan
	model *core.Model
	preds []float64
	err   error
	done  chan struct{}
	enq   time.Time
}

// newBatcher builds the stage but does not start it — the caller wires any
// telemetry first, then calls start. Nothing can enqueue before start
// because the Server isn't handed out until NewWithConfig returns.
func newBatcher(srv *Server, maxBatch int, maxWait time.Duration, depth int) *batcher {
	return &batcher{
		srv:      srv,
		maxBatch: maxBatch,
		maxWait:  maxWait,
		queue:    make(chan *batchReq, depth),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// start launches the collector goroutine.
func (b *batcher) start() { go b.loop() }

// submit enqueues a plan and blocks until its batch has run. m selects the
// model (nil = the server's current model; a tenant's adapter view
// otherwise). It never blocks on a full queue — that is the backpressure
// signal.
func (b *batcher) submit(f *plan.FlatPlan, m *core.Model) ([]float64, error) {
	r := &batchReq{f: f, model: m, done: make(chan struct{})}
	if b.waitHist != nil {
		r.enq = time.Now()
	}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		b.rejected.Add(1)
		return nil, errClosed
	}
	select {
	case b.queue <- r:
		b.mu.RUnlock()
		// High-watermark of queue depth: how close serving has come to
		// spilling 503s, visible on /healthz even if the spill never happens.
		if d := int64(len(b.queue)); d > b.depthHWM.Load() {
			for {
				old := b.depthHWM.Load()
				if d <= old || b.depthHWM.CompareAndSwap(old, d) {
					break
				}
			}
		}
	default:
		b.mu.RUnlock()
		b.rejected.Add(1)
		return nil, errQueueFull
	}
	<-r.done
	return r.preds, r.err
}

// close stops the collector after a graceful drain: requests already
// enqueued are still batched and answered; subsequent submits fail with
// errClosed. Idempotent.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	<-b.done
}

func (b *batcher) loop() {
	defer close(b.done)
	reqs := make([]*batchReq, 0, b.maxBatch)
	for {
		select {
		case r := <-b.queue:
			b.run(b.gather(append(reqs[:0], r), true))
		case <-b.stop:
			// Drain: no submit can enqueue after closed was set, so the
			// queue only shrinks from here.
			for {
				select {
				case r := <-b.queue:
					b.run(b.gather(append(reqs[:0], r), false))
				default:
					return
				}
			}
		}
	}
}

// gather fills the batch up to maxBatch. With wait set it lingers up to
// maxWait after the first request; during drain it only takes what is
// already queued.
func (b *batcher) gather(reqs []*batchReq, wait bool) []*batchReq {
	if !wait {
		for len(reqs) < b.maxBatch {
			select {
			case r := <-b.queue:
				reqs = append(reqs, r)
			default:
				return reqs
			}
		}
		return reqs
	}
	timer := time.NewTimer(b.maxWait)
	defer timer.Stop()
	for len(reqs) < b.maxBatch {
		select {
		case r := <-b.queue:
			reqs = append(reqs, r)
		case <-timer.C:
			return reqs
		}
	}
	return reqs
}

// run executes one model batch and completes every request in it. The
// model is resolved at execution time, so a batch that straddles SetModel
// is served consistently by one model (and the caches' generation guard
// keeps any stale result out of them).
func (b *batcher) run(reqs []*batchReq) {
	defer func() {
		// A panicking forward pass must not strand waiters: fail the whole
		// batch instead of hanging every coalesced caller forever. Nothing
		// below can panic once the first done is closed, so none is closed yet.
		if p := recover(); p != nil {
			err := fmt.Errorf("serve: batch inference panicked: %v", p)
			for _, r := range reqs {
				r.preds, r.err = nil, err
				close(r.done)
			}
		}
	}()
	if b.waitHist != nil {
		now := time.Now()
		for _, r := range reqs {
			b.waitHist.Observe(now.Sub(r.enq).Seconds())
		}
	}
	// One queue serves every tenant, so a drain window can mix models; each
	// request runs on its own. The server model is resolved once — nil
	// entries all ride the same one, so a batch straddling SetModel is still
	// served consistently. Prediction slices are allocated per request:
	// they escape to the waiters and the caches.
	serverM := b.srv.Model()
	nn.ParallelFor(len(reqs), b.srv.Workers, func(i int) {
		r := reqs[i]
		m := r.model
		if m == nil {
			m = serverM
		}
		r.preds = m.AppendPredictSubPlansFlat(nil, r.f)
	})
	b.observeBatch(len(reqs))
	for _, r := range reqs {
		close(r.done)
	}
}

// observeBatch records one executed batch in the counters and, when
// telemetry is on, the size histogram.
func (b *batcher) observeBatch(n int) {
	b.batches.Add(1)
	b.requests.Add(uint64(n))
	if b.sizeHist != nil {
		b.sizeHist.Observe(float64(n))
	}
}

func (b *batcher) stats() QueueStats {
	return QueueStats{
		Depth:    len(b.queue),
		DepthHWM: b.depthHWM.Load(),
		Capacity: cap(b.queue),
		MaxBatch: b.maxBatch,
		Batches:  b.batches.Load(),
		Requests: b.requests.Load(),
		Rejected: b.rejected.Load(),
	}
}
