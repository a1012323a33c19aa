package adapt

import (
	"sync"
	"time"
)

// Pool runs background adaptation attempts for every controller attached to
// it on a fixed set of workers, so however many domains are due at once —
// the base model and a thousand drifting tenants — at most that many
// fine-tunes train side by side. The process builds one.
type Pool struct {
	jobs chan *Controller
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// maxQueued bounds the attempts waiting for a worker. A controller is queued
// at most once, so this is the number of distinct domains that may wait; one
// more is dropped and re-enqueued by that domain's next trigger.
const maxQueued = 1024

// NewPool starts a pool of workers (at least one). Stop shuts it down.
func NewPool(workers int) *Pool {
	p := &Pool{jobs: make(chan *Controller, maxQueued), stop: make(chan struct{})}
	for i := 0; i < max(workers, 1); i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case c := <-p.jobs:
			// RunOnce's errors are its two skips — busy, too few samples —
			// and routine here; an attempt's verdict is in Status.
			_, _ = c.RunOnce()
			c.queued.Store(false)
		}
	}
}

// Attach makes p the pool c's background attempts run on: from here on a
// trigger in Observe, an Enqueue call and — when c's Config.Interval is set —
// a timer all queue c here. Call it before c is used; a controller attached
// to no pool (or to a nil one) adapts only when RunOnce is called.
func (p *Pool) Attach(c *Controller) {
	if p == nil {
		return
	}
	c.pool = p
	if c.cfg.Interval <= 0 {
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(c.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				c.Enqueue()
			}
		}
	}()
}

// Stop shuts the pool down and returns once every worker has: an attempt in
// flight runs to its end — publishes and persists — first, attempts still
// queued are dropped. Idempotent.
func (p *Pool) Stop() {
	p.once.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// Enqueue queues one background attempt for c on its pool and reports
// whether it did: not when c has no pool, when an attempt of c's is already
// queued or running there, or when the queue is full (a later trigger
// retries). Never blocks.
func (c *Controller) Enqueue() bool {
	if c.pool == nil || !c.queued.CompareAndSwap(false, true) {
		return false
	}
	select {
	case c.pool.jobs <- c:
		return true
	default:
		c.queued.Store(false)
		return false
	}
}
