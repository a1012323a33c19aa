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

// GradPool is the data-parallel minibatch gradient engine: it fans a
// minibatch's loss computations out to a goroutine pool, giving every
// minibatch item a private gradient shard (one buffer per Param), and then
// reduces the shards into each Param.Grad in fixed param-then-item order.
//
// Because every item accumulates into its own shard and the reduction order
// depends only on the item index — never on goroutine scheduling — the
// summed gradient is bitwise identical for any worker count, including 1.
// Forward passes read parameter values that stay frozen for the duration of
// an Accumulate call (the optimizer steps only after reduction), so the
// per-item computations are pure and race-free.
//
// Shards are per item; tapes are per worker. An item's tape is scratch: by
// the time Backward returns, everything the item contributes sits in its
// shard and its loss scalar has been copied out, so which tape (and which
// recycled arena memory) an item ran on cannot reach a result, and only
// `workers` tapes are ever live at once. Both are retained across the
// Accumulate calls of one fit — shards grow to the largest batch seen — so
// steady-state training does no per-batch allocation of gradient or tape
// storage.
//
// Neither is built for the fit: shard slabs are borrowed from the arena
// chunk pools and tapes from the tape pool, and Release hands both back, so
// the next fit — on this pool or any other in the process — runs on the same
// memory instead of leaving 12 MB for the collector. The owner of a GradPool
// defers Release where it builds it.
type GradPool struct {
	params  []*Param
	index   map[*Param]int
	workers int
	shards  []*shard // shards[item], nil until the item first runs
	tapes   []*Tape  // tapes[worker], see dispatch
	// losses[item] is that item's loss value from the last Accumulate,
	// summed in fixed item order so the returned total is deterministic.
	losses []float64

	// Timing, when set (the fit loop sets it only when TrainHooks are
	// installed), makes Accumulate meter per-item busy time so worker
	// utilization can be reported. Off by default: two time.Now calls per
	// minibatch item are cheap but not free.
	Timing bool
	busyNS atomic.Int64
}

// shard is one minibatch item's private gradient storage: a matrix per
// trainable Param, all of them views into one slab, so building a shard is
// one allocation and clearing it one memclr.
type shard struct {
	slab  []float64
	grads []*Matrix // grads[paramIdx]; nil for a frozen Param
	// leaf is the SetLeafGrads redirect into grads, built once so
	// steady-state Accumulate calls allocate nothing.
	leaf func(p *Param) *Matrix
}

// NewGradPool builds a pool over params. workers <= 0 selects
// runtime.GOMAXPROCS(0).
func NewGradPool(params []*Param, workers int) *GradPool {
	g := &GradPool{params: params, workers: Workers(workers), index: make(map[*Param]int, len(params))}
	for i, p := range params {
		g.index[p] = i
	}
	return g
}

// grow ensures at least n shard slots, and a tape for every worker a batch
// of n can occupy, exist. The shards themselves are built by the worker
// that first runs the item (newShard), so a fit's largest clear — one batch
// of gradient copies — is made in parallel, not ahead of the batch.
func (g *GradPool) grow(n int) {
	for len(g.tapes) < min(g.workers, n) {
		g.tapes = append(g.tapes, GetTape())
	}
	for len(g.shards) < n {
		g.shards = append(g.shards, nil)
		g.losses = append(g.losses, 0)
	}
}

// newShard builds a zeroed shard over a slab borrowed from the chunk pools.
func (g *GradPool) newShard() *shard {
	total := 0
	for _, p := range g.params {
		// Frozen leaves get NeedsGrad=false on the tape, so backward never
		// accumulates into them — a shard buffer per item for the frozen
		// base of a LoRA fine-tune is the dominant memory cost of training
		// for nothing. Leaf falls back to p.Grad on the nil, which stays
		// untouched for the same reason.
		if !p.Frozen {
			total += len(p.Value.Data)
		}
	}
	// A recycled chunk holds whatever its last borrower left there.
	sh := &shard{slab: newChunk(total)[:total], grads: make([]*Matrix, len(g.params))}
	clear(sh.slab)
	hdrs := make([]Matrix, len(g.params))
	off := 0
	for i, p := range g.params {
		if p.Frozen {
			continue
		}
		n := len(p.Value.Data)
		hdrs[i] = Matrix{Rows: p.Value.Rows, Cols: p.Value.Cols, Data: sh.slab[off : off+n : off+n]}
		sh.grads[i] = &hdrs[i]
		off += n
	}
	sh.leaf = func(p *Param) *Matrix {
		if j, ok := g.index[p]; ok {
			return sh.grads[j]
		}
		return nil
	}
	return sh
}

// Release returns the pool's shard slabs to the chunk pools and its tapes to
// the tape pool, and forgets them: nothing the pool computed is lost (the
// gradients are in Param.Grad), a second Release finds nothing to return,
// and a later Accumulate borrows afresh. It must not run concurrently with
// Accumulate — which, having returned or panicked, has no worker still
// running.
func (g *GradPool) Release() {
	for _, sh := range g.shards {
		if sh != nil {
			putChunk(sh.slab)
		}
	}
	for _, t := range g.tapes {
		// A training tape's arena is megabytes and tapePool also serves
		// single-plan passes, so the chunks go back to the class pools the
		// slabs share and the tape goes back thin.
		t.Arena().Release()
		PutTape(t)
	}
	g.shards, g.tapes, g.losses = nil, nil, nil
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
// the running worker's tape, with parameter gradients landing in that item's
// shard — and reduces all shards into Param.Grad (adding to whatever is
// already there, like serial Backward calls would). lossFn must build the
// graph on the given tape and return its scalar loss node; it is called
// concurrently and must not mutate shared state.
//
// The returned value is the sum of the per-item losses, added in fixed item
// order — deterministic for any worker count, like the gradients — so the
// training loop can report epoch loss without a second forward pass.
func (g *GradPool) Accumulate(n int, lossFn func(t *Tape, i int) *Node) float64 {
	if n <= 0 {
		return 0
	}
	g.grow(n)
	timing := g.Timing
	dispatch(n, g.workers, func(w, i int) {
		var t0 time.Time
		if timing {
			t0 = time.Now()
		}
		sh := g.shards[i]
		if sh == nil {
			sh = g.newShard()
			g.shards[i] = sh
		} else {
			clear(sh.slab)
		}
		t := g.tapes[w]
		t.Reset()
		t.SetLeafGrads(sh.leaf)
		loss := lossFn(t, i)
		t.Backward(loss)
		g.losses[i] = loss.Value.Data[0]
		if timing {
			g.busyNS.Add(int64(time.Since(t0)))
		}
	})
	// Deterministic reduction: fixed param-then-item order, independent of
	// which worker computed what when.
	for pi, p := range g.params {
		for _, sh := range g.shards[:n] {
			if b := sh.grads[pi]; b != nil {
				AddInPlace(p.Grad, b)
			}
		}
	}
	total := 0.0
	for i := 0; i < n; i++ {
		total += g.losses[i]
	}
	return total
}
