package serve

import (
	"fmt"
	"sync"
	"time"

	"dace/internal/core"
	"dace/internal/nn"
	"dace/internal/plan"
	"dace/internal/telemetry"
)

// batcher is the admission stage in front of the model: a /predict cache
// miss takes one of nn.Workers(srv.Workers) slots and runs its forward pass
// on its own goroutine — no queue hop, no timer, no hand-off while a slot is
// free. When every slot is busy the request waits in FIFO order (a finishing
// request hands its slot to the oldest waiter), and when depth requests are
// already waiting it fails fast instead of blocking (backpressure: the
// handler turns errQueueFull into 503 + Retry-After). The stage is
// work-conserving: a request waits only while Workers forwards are running,
// so under load throughput is the Workers-wide rate a fan-out would give and
// an idle server answers in decode + forward + encode.
//
// The name (and the dace_batch_* metric names) are the micro-batcher's this
// stage replaced; a "batch" was only ever independent per-plan forwards, so
// collecting one could add delay but never save work.
type batcher struct {
	srv   *Server
	depth int // most requests allowed to wait for a slot

	// predict runs one forward pass, appending to dst. A field so tests can
	// count, block or panic in it; production never reassigns it.
	predict func(dst []float64, m *core.Model, f *plan.FlatPlan) []float64

	mu         sync.Mutex
	idle       *sync.Cond // signalled when a closed stage releases its last slot
	closed     bool
	busy       int     // slots held
	head, tail *waiter // FIFO of requests waiting for a slot
	waiting    int
	depthHWM   int64
	requests   uint64 // forwards finished
	rejected   uint64

	// waitHist is wired by newServerMetrics before the Server is handed out.
	// Only requests that wait for a slot observe it — the uncontended path
	// takes no timestamp.
	waitHist *telemetry.Histogram
}

// waiter is one request parked for a slot. ready has capacity one and takes
// exactly one send per park, so a pooled waiter is clean when it is reused.
type waiter struct {
	ready chan struct{}
	next  *waiter
}

var waiterPool = sync.Pool{New: func() any { return &waiter{ready: make(chan struct{}, 1)} }}

func newBatcher(srv *Server, depth int) *batcher {
	b := &batcher{srv: srv, depth: depth, predict: predictFlat}
	b.idle = sync.NewCond(&b.mu)
	return b
}

func predictFlat(dst []float64, m *core.Model, f *plan.FlatPlan) []float64 {
	return m.AppendPredictSubPlansFlat(dst, f)
}

// submit runs f's forward pass on m once a slot is free and returns its
// predictions appended to dst: a caller's buffer when the predictions are
// not kept, nil when they are (they go into a cache). The slot count is
// read per call because Server.Workers is assigned after construction. f
// stays the caller's; submit is done with it on return.
func (b *batcher) submit(dst []float64, f *plan.FlatPlan, m *core.Model) ([]float64, error) {
	slots := nn.Workers(b.srv.Workers)
	b.mu.Lock()
	switch {
	case b.closed:
		b.rejected++
		b.mu.Unlock()
		return nil, errClosed
	case b.head == nil && b.busy < slots:
		b.busy++
		b.mu.Unlock()
	case b.waiting >= b.depth:
		b.rejected++
		b.mu.Unlock()
		return nil, errQueueFull
	default:
		b.park()
	}
	return b.forward(dst, f, m)
}

// park queues the caller behind the busy slots and returns, with mu released,
// once a finishing request has handed it one (busy already counts it). A
// parked request is always answered: close waits for it.
func (b *batcher) park() {
	w := waiterPool.Get().(*waiter)
	if b.tail == nil {
		b.head = w
	} else {
		b.tail.next = w
	}
	b.tail = w
	b.waiting++
	// High-watermark of waiters: how close serving has come to spilling
	// 503s, visible on /healthz even if the spill never happens.
	if d := int64(b.waiting); d > b.depthHWM {
		b.depthHWM = d
	}
	hist := b.waitHist
	b.mu.Unlock()
	if hist == nil {
		<-w.ready
	} else {
		start := time.Now()
		<-w.ready
		hist.Observe(time.Since(start).Seconds())
	}
	waiterPool.Put(w)
}

// forward runs one forward pass on a held slot and gives the slot up. A
// panicking forward fails its own request and still releases the slot, so
// one bad plan cannot wedge the stage or strand the waiters behind it.
func (b *batcher) forward(dst []float64, f *plan.FlatPlan, m *core.Model) (preds []float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			preds, err = nil, fmt.Errorf("%w: %v", errPanicked, p)
		}
		b.release()
	}()
	return b.predict(dst, m, f), nil
}

// release counts the finished forward and hands the caller's slot to the
// oldest waiter, or frees it.
func (b *batcher) release() {
	b.mu.Lock()
	b.requests++
	if w := b.head; w != nil {
		if b.head = w.next; b.head == nil {
			b.tail = nil
		}
		w.next = nil
		b.waiting--
		w.ready <- struct{}{} // capacity one, one send per park: never blocks
	} else if b.busy--; b.busy == 0 && b.closed {
		b.idle.Broadcast()
	}
	b.mu.Unlock()
}

// close drains the stage: requests holding or waiting for a slot are still
// answered, later submits fail with errClosed, and close returns once the
// last slot is free. Idempotent.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	for b.busy > 0 { // waiters imply a busy slot, so this covers them too
		b.idle.Wait()
	}
	b.mu.Unlock()
}

func (b *batcher) stats() QueueStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return QueueStats{
		Depth:    b.waiting,
		DepthHWM: b.depthHWM,
		Capacity: b.depth,
		Batches:  b.requests,
		Requests: b.requests,
		Rejected: b.rejected,
	}
}
