package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers resolves a worker-count knob: values <= 0 mean "one worker per
// available CPU" (runtime.GOMAXPROCS(0)).
func Workers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// ParallelFor runs fn(i) for every i in [0, n) across up to `workers`
// goroutines (resolved via Workers). Work is handed out by an atomic
// counter, so load balances regardless of per-item cost; fn must be safe to
// call concurrently and should write only to item-i state. All calls have
// completed when ParallelFor returns. A panic in fn surfaces on the caller's
// goroutine whatever the worker count (see dispatch).
//
// Not inlined: as a two-line wrapper it would be, and every caller in core,
// serve and featurize would grow by a closure — moving the text linked after
// them, which this repository's benchmark is sensitive to (EXPERIMENTS.md,
// "The refused check").
//
//go:noinline
func ParallelFor(n, workers int, fn func(i int)) {
	dispatch(n, workers, func(_, i int) { fn(i) })
}

// dispatch is the package's one work loop: fn(w, i) for every i in [0, n),
// where w < min(workers, n) names the goroutine running the call — no two
// concurrent calls share a w, so state indexed by it (GradPool's tapes) needs
// no lock.
//
// A panic in fn must not die on a worker goroutine, where nothing can recover
// it and the process exits: the first one is captured, the counter is pushed
// past n so the other workers finish the item they hold and stop, and the
// value is re-raised here, on the caller's goroutine — exactly where the
// one-worker loop raises it. The stack of the panicking worker is gone by
// then; rerun with one worker to see it.
func dispatch(n, workers int, fn func(worker, i int)) {
	w := min(Workers(workers), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	// One struct, so the goroutines' closures share one heap object.
	var st struct {
		next  atomic.Int64
		wg    sync.WaitGroup
		once  sync.Once
		value any // what the first panicking worker raised
	}
	st.wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer st.wg.Done()
			defer func() {
				if p := recover(); p != nil {
					st.once.Do(func() { st.value = p })
					st.next.Store(int64(n))
				}
			}()
			for {
				i := int(st.next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(g, i)
			}
		}()
	}
	st.wg.Wait()
	if st.value != nil {
		panic(st.value)
	}
}

// GradPool is the data-parallel minibatch gradient engine. Accumulate runs
// a minibatch's forward passes and the activation half of their backward
// passes on a goroutine pool, one tape per worker; the parameter half —
// every adjoint with a trainable Leaf as an operand — is recorded on the
// tapes, and the ordered pass (pass.go) then forms each parameter's
// gradient with its rows split across the same workers, each block walking
// the items in order. The summed gradient is bitwise identical for any
// worker count, including 1: where an item ran, and on which recycled arena
// memory, never reaches a result. Forward passes read parameter values that
// stay fixed for the duration of an Accumulate call (the optimizer steps
// only after it), so the per-item computations are pure and race-free.
//
// Tapes are per worker, and a tape holds every item its worker ran until
// the pass has read them; no buffer the size of the parameters exists per
// item. Tapes and the pass's block scratch are retained across the
// Accumulate calls of one fit, so steady-state training does no per-batch
// allocation. Neither is built for the fit: tapes come from the tape pool
// and scratch from the arena chunk pools, and Release hands both back, so
// the next fit — on this pool or any other in the process — runs on the
// same memory. The owner of a GradPool defers Release where it builds it.
type GradPool struct {
	blocks  []rowBlock // the trainable parameters' rows, cut for the pass
	workers int
	tapes   []*Tape   // tapes[worker], see dispatch
	passers []*passer // passers[worker] of the ordered pass
	items   []item    // items[i]: minibatch item i's tape, records and loss

	// The two dispatch bodies of Accumulate, built once so that a warm
	// Accumulate allocates nothing on one worker; lossFn and n are the
	// running call's.
	runItem, formBlock func(w, i int)
	lossFn             func(t *Tape, i int) *Node
	n                  int

	// Timing, when set (the fit loop sets it only when TrainHooks are
	// installed), makes Accumulate meter per-item busy time so worker
	// utilization can be reported. Off by default: two time.Now calls per
	// minibatch item are cheap but not free.
	Timing bool
	busyNS atomic.Int64
}

// NewGradPool builds a pool over params. workers <= 0 selects
// runtime.GOMAXPROCS(0).
func NewGradPool(params []*Param, workers int) *GradPool {
	g := &GradPool{blocks: rowBlocks(params), workers: Workers(workers)}
	g.runItem = func(w, i int) {
		var t0 time.Time
		if g.Timing {
			t0 = time.Now()
		}
		t := g.tapes[w]
		from, lo := t.n, len(t.pending)
		loss := g.lossFn(t, i)
		t.backward(loss, from)
		g.items[i] = item{t: t, lo: lo, hi: len(t.pending), loss: loss.Value.Data[0]}
		if g.Timing {
			g.busyNS.Add(int64(time.Since(t0)))
		}
	}
	g.formBlock = func(w, b int) { g.passers[w].formBlock(g.blocks[b], g.items[:g.n]) }
	return g
}

// grow ensures a tape for every worker a batch of n can occupy, a passer
// for every worker the pass can occupy, and n item slots.
func (g *GradPool) grow(n int) {
	for len(g.tapes) < min(g.workers, n) {
		g.tapes = append(g.tapes, GetTape())
	}
	for len(g.passers) < min(g.workers, len(g.blocks)) {
		ps := &passer{}
		for _, b := range g.blocks {
			ps.reserve((b.hi - b.lo) * b.p.Value.Cols)
		}
		g.passers = append(g.passers, ps)
	}
	for len(g.items) < n {
		g.items = append(g.items, item{})
	}
}

// Release returns the pool's tapes to the tape pool (their arena chunks to
// the chunk pools) and its pass scratch to the chunk pools, and forgets
// them: nothing the pool computed is lost (the gradients are in
// Param.Grad), a second Release finds nothing to return, and a later
// Accumulate borrows afresh. It must not run concurrently with Accumulate —
// which, having returned or panicked, has no worker still running.
func (g *GradPool) Release() {
	for _, t := range g.tapes {
		// A training tape's arena is megabytes and tapePool also serves
		// single-plan passes, so the chunks go back to the class pools and
		// the tape goes back thin.
		t.Arena().Release()
		t.tmp.Release()
		PutTape(t)
	}
	for _, ps := range g.passers {
		ps.release()
	}
	g.tapes, g.passers, g.items = nil, nil, nil
}

// TakeBusy returns the busy time metered since the last call (zero unless
// Timing is set) and resets the meter. The fit loop drains it once per
// epoch to compute worker utilization.
func (g *GradPool) TakeBusy() time.Duration {
	return time.Duration(g.busyNS.Swap(0))
}

// WorkerCount reports the resolved pool width.
func (g *GradPool) WorkerCount() int { return g.workers }

// Accumulate runs lossFn for every item in [0, n) — forward and backward on
// the running worker's tape — and then the ordered pass, which adds every
// item's parameter gradient into Param.Grad (adding to whatever is already
// there, like serial Backward calls would). lossFn must build the graph on
// the given tape and return its scalar loss node; it is called concurrently
// and must not mutate shared state.
//
// The returned value is the sum of the per-item losses, added in fixed item
// order — deterministic for any worker count, like the gradients — so the
// training loop can report epoch loss without a second forward pass.
func (g *GradPool) Accumulate(n int, lossFn func(t *Tape, i int) *Node) float64 {
	if n <= 0 {
		return 0
	}
	g.grow(n)
	for _, t := range g.tapes[:min(g.workers, n)] {
		t.Reset()
	}
	g.lossFn, g.n = lossFn, n
	dispatch(n, g.workers, g.runItem)
	dispatch(len(g.blocks), g.workers, g.formBlock)
	// Which worker runs how many items changes from minibatch to minibatch;
	// a tape gives back what this one did not use, so the tapes together
	// hold about one minibatch, not each the most it ever held.
	for _, t := range g.tapes[:min(g.workers, n)] {
		t.arena.trim()
	}
	total := 0.0
	for _, it := range g.items[:n] {
		total += it.loss
	}
	return total
}

// Step is one minibatch of training: Accumulate over n items, then opt.Step
// on the pool's workers. It returns the summed loss.
func (g *GradPool) Step(opt *Adam, n int, lossFn func(t *Tape, i int) *Node) float64 {
	loss := g.Accumulate(n, lossFn)
	opt.workers = g.workers
	opt.Step()
	return loss
}
