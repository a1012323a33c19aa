package nn

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count must pass through")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("auto worker count must be at least 1")
	}
}

func TestParallelForCoversEveryIndex(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {7, 1}, {7, 3}, {100, 4}, {5, 100},
	} {
		hits := make([]int64, tc.n)
		ParallelFor(tc.n, tc.workers, func(i int) {
			atomic.AddInt64(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d workers=%d: index %d ran %d times", tc.n, tc.workers, i, h)
			}
		}
	}
}

// TestParallelForPanicSurfacesOnCaller: a panic in fn used to die on a worker
// goroutine — unrecoverable, the process exits — whenever more than one
// worker ran, and on the caller's goroutine only with one. It must reach the
// caller, with the value it was raised with, for every worker count; the
// other workers finish the item they hold and stop, so every index ran at
// most once and the panicking one exactly once.
func TestParallelForPanicSurfacesOnCaller(t *testing.T) {
	const n, bad = 200, 17
	for _, workers := range []int{1, 2, 3, n + 50} {
		hits := make([]int64, n)
		got := func() (p any) {
			defer func() { p = recover() }()
			ParallelFor(n, workers, func(i int) {
				atomic.AddInt64(&hits[i], 1)
				if i == bad {
					panic("bad item")
				}
			})
			return nil
		}()
		if got != "bad item" {
			t.Fatalf("workers=%d: recovered %v on the caller, want the worker's panic value", workers, got)
		}
		for i, h := range hits {
			if h > 1 || (i == bad && h != 1) {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
			// One worker runs in index order: everything before the panic
			// ran, nothing after it did.
			if workers == 1 && (h == 1) != (i <= bad) {
				t.Fatalf("workers=1: index %d ran %d times around a panic at %d", i, h, bad)
			}
		}
		// Several panics at once: one of them surfaces, the loop still ends.
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers=%d: a loop whose every call panics returned normally", workers)
				}
			}()
			ParallelFor(n, workers, func(i int) { panic(i) })
		}()
	}
	// The loop is reusable afterwards.
	var ran atomic.Int64
	ParallelFor(n, 4, func(int) { ran.Add(1) })
	if ran.Load() != n {
		t.Fatalf("after a panic: %d of %d calls ran", ran.Load(), n)
	}
}

// poolFixture builds a tiny MLP (including a frozen parameter, whose
// adjoints every op must skip) plus a batch of inputs and targets,
// mirroring how the estimators drive trainLoop.
func poolFixture(seed int64) (mlp *MLP, gamma *Param, xs []*Matrix, ys []float64) {
	rng := rand.New(rand.NewSource(seed))
	mlp = NewMLP("t", 5, []int{8, 1}, rng)
	gamma = NewParam("t.gamma", 1, 1)
	gamma.Value.Data[0] = 0.5
	gamma.Frozen = true
	for i := 0; i < 9; i++ {
		x := NewMatrix(1, 5)
		for j := range x.Data {
			x.Data[j] = rng.NormFloat64()
		}
		xs = append(xs, x)
		ys = append(ys, rng.NormFloat64())
	}
	return mlp, gamma, xs, ys
}

// fixtureLoss records |mlp(x) + γ·x₀ − y| on t for item i.
func fixtureLoss(t *Tape, mlp *MLP, gamma *Param, xs []*Matrix, ys []float64, i int) *Node {
	pred := mlp.Apply(t, t.Const(xs[i]))
	pred = t.Add(pred, t.ScaleConst(t.Leaf(gamma), FromSlice(1, 1, []float64{xs[i].Data[0]})))
	return t.Sum(t.Abs(t.Sub(pred, t.Const(FromSlice(1, 1, []float64{ys[i]})))))
}

func grads(params []*Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.Grad.Data...)
	}
	return out
}

// TestGradPoolMatchesSerialGradient is the gradcheck-style reduction test:
// the sharded sum must equal the mathematically identical serial gradient —
// bitwise when summed per item in the same order, and to tight floating-
// point tolerance against direct tape accumulation.
func TestGradPoolMatchesSerialGradient(t *testing.T) {
	mlp, gamma, xs, ys := poolFixture(11)
	params := append(mlp.Params(), gamma)
	lossFn := func(tp *Tape, i int) *Node { return fixtureLoss(tp, mlp, gamma, xs, ys, i) }

	// Reference: direct serial accumulation into Param.Grad, the pre-pool
	// training-loop behavior.
	for _, p := range params {
		p.Grad.Zero()
	}
	for i := range xs {
		tape := NewTape()
		tape.Backward(lossFn(tape, i))
	}
	serial := grads(params)

	// Sharded reduction, single worker.
	for _, p := range params {
		p.Grad.Zero()
	}
	pool := NewGradPool(params, 1)
	pool.Accumulate(len(xs), lossFn)
	sharded := grads(params)

	for pi := range params {
		for j := range serial[pi] {
			diff := math.Abs(serial[pi][j] - sharded[pi][j])
			scale := math.Max(1, math.Abs(serial[pi][j]))
			if diff/scale > 1e-12 {
				t.Fatalf("param %s[%d]: serial %v vs sharded %v", params[pi].Name, j, serial[pi][j], sharded[pi][j])
			}
		}
	}
	// Frozen parameters take no gradient at all: NeedsGrad gates every
	// adjoint, which is what lets the pool and Adam skip their buffers
	// entirely, and what keeps ClipGradNorm's global norm trainable-only
	// — identical between the serial and sharded paths.
	if gamma.Grad.Data[0] != 0 {
		t.Fatalf("frozen parameter accumulated a gradient: %v", gamma.Grad.Data[0])
	}
}

// TestGradPoolWorkerCountInvariance asserts the determinism guarantee at the
// nn layer: any worker count — one, fewer than the batch, more than the batch
// — produces bitwise-identical reduced gradients, because shards reduce in
// fixed param-then-item order and nothing an item computes depends on which
// worker's tape (and what recycled arena memory) it ran on.
func TestGradPoolWorkerCountInvariance(t *testing.T) {
	mlp, gamma, xs, ys := poolFixture(13)
	params := append(mlp.Params(), gamma)
	lossFn := func(tp *Tape, i int) *Node { return fixtureLoss(tp, mlp, gamma, xs, ys, i) }

	var want [][]float64
	for _, workers := range []int{1, 2, 3, 8, len(xs) + 5} {
		for _, p := range params {
			p.Grad.Zero()
		}
		pool := NewGradPool(params, workers)
		// Run twice to exercise shard reuse (buffers must be re-zeroed).
		pool.Accumulate(len(xs), lossFn)
		for _, p := range params {
			p.Grad.Zero()
		}
		pool.Accumulate(len(xs), lossFn)
		got := grads(params)
		if want == nil {
			want = got
			continue
		}
		for pi := range params {
			for j := range want[pi] {
				if want[pi][j] != got[pi][j] {
					t.Fatalf("workers=%d: param %s[%d] = %v, want bitwise %v",
						workers, params[pi].Name, j, got[pi][j], want[pi][j])
				}
			}
		}
	}
}

// TestGradPoolAgainstGradCheck ties the sharded gradient to finite
// differences: the reduced gradient of a summed loss must match numeric
// differentiation, proving the redirect changes where gradients land, not
// what they are.
func TestGradPoolAgainstGradCheck(t *testing.T) {
	mlp, gamma, xs, ys := poolFixture(17)
	params := mlp.Params() // GradCheck perturbs trainable params only
	sumLoss := func(tp *Tape) *Node {
		total := fixtureLoss(tp, mlp, gamma, xs, ys, 0)
		for i := 1; i < len(xs); i++ {
			total = tp.Add(total, fixtureLoss(tp, mlp, gamma, xs, ys, i))
		}
		return total
	}
	if worst := GradCheck(params, sumLoss); worst > 1e-6 {
		t.Fatalf("analytic gradient fails finite differences: %v", worst)
	}
	// GradCheck validated tape gradients of the summed loss; now confirm the
	// pool's per-item sharding reproduces them.
	for _, p := range params {
		p.Grad.Zero()
	}
	tape := NewTape()
	tape.Backward(sumLoss(tape))
	want := grads(params)
	for _, p := range params {
		p.Grad.Zero()
	}
	pool := NewGradPool(append(mlp.Params(), gamma), 4)
	pool.Accumulate(len(xs), func(tp *Tape, i int) *Node {
		return fixtureLoss(tp, mlp, gamma, xs, ys, i)
	})
	for pi, p := range params {
		for j := range want[pi] {
			diff := math.Abs(want[pi][j] - p.Grad.Data[j])
			scale := math.Max(1, math.Abs(want[pi][j]))
			if diff/scale > 1e-12 {
				t.Fatalf("param %s[%d]: summed-tape %v vs pool %v", p.Name, j, want[pi][j], p.Grad.Data[j])
			}
		}
	}
}

// TestGradPoolHoldsOneTapePerWorker: tapes are per worker, not per item — a
// 64-item batch on 2 workers builds 2 — and a warm pool's Accumulate builds
// nothing: no tape, no arena chunk, no shard.
func TestGradPoolHoldsOneTapePerWorker(t *testing.T) {
	// The byte count below is exact only when every chunk slab the first
	// Accumulate releases is where the second looks for it: a collection
	// empties the pools, and the one item a P keeps in its private slot is
	// out of reach of a borrower running on another P. No collections and
	// one P, from the first Accumulate on, make it exact (the workers still
	// run as two goroutines).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mlp, gamma, xs, ys := poolFixture(19)
	params := append(mlp.Params(), gamma)
	const n = 64
	// Constants built once, so the loss itself allocates nothing on a warm
	// tape.
	x0 := make([]*Matrix, len(xs))
	y := make([]*Matrix, len(xs))
	for i := range xs {
		x0[i] = FromSlice(1, 1, []float64{xs[i].Data[0]})
		y[i] = FromSlice(1, 1, []float64{ys[i]})
	}
	lossFn := func(tp *Tape, i int) *Node {
		i %= len(xs)
		pred := mlp.Apply(tp, tp.Const(xs[i]))
		pred = tp.Add(pred, tp.ScaleConst(tp.Leaf(gamma), x0[i]))
		return tp.Sum(tp.Abs(tp.Sub(pred, tp.Const(y[i]))))
	}
	pool := NewGradPool(params, 2)
	pool.Accumulate(n, lossFn)
	if len(pool.tapes) != 2 || len(pool.shards) != n {
		t.Fatalf("after Accumulate(%d) on 2 workers: %d tapes, %d shards; want 2 and %d", n, len(pool.tapes), len(pool.shards), n)
	}
	tapes := append([]*Tape(nil), pool.tapes...)
	chunks := []int{len(tapes[0].arena.chunks), len(tapes[1].arena.chunks)}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// What is left is the fan-out itself — the closures, the WaitGroup and
	// the goroutines' bookkeeping — a few hundred bytes whatever n is, where
	// one tape's smallest arena chunk is 8 KiB.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pool.Accumulate(n, lossFn)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2048 {
		t.Fatalf("second Accumulate allocated %d bytes, want the fan-out's few hundred", got)
	}
	for w, tp := range pool.tapes {
		if tp != tapes[w] || len(tp.arena.chunks) != chunks[w] {
			t.Fatalf("worker %d's tape was rebuilt or grew on a warm pool", w)
		}
	}
	pool1 := NewGradPool(params, 1)
	pool1.Accumulate(n, lossFn)
	if avg := testing.AllocsPerRun(10, func() { pool1.Accumulate(n, lossFn) }); avg > 1 {
		t.Fatalf("one-worker Accumulate allocates %.1f objects/op on a warm pool, want at most the closure", avg)
	}
}

// TestGradPoolReleaseExactlyOnce: a slab or tape that entered its pool twice
// would be lent to two fits at once. Release forgets what it returns, so a
// second Release returns nothing, an Accumulate after it borrows afresh and
// computes the same gradients, and a fit whose loss panics — the deferred
// Release then runs after dispatch has drained the other workers — leaves
// the pool empty-handed too.
func TestGradPoolReleaseExactlyOnce(t *testing.T) {
	mlp, gamma, xs, ys := poolFixture(23)
	params := append(mlp.Params(), gamma)
	lossFn := func(tp *Tape, i int) *Node { return fixtureLoss(tp, mlp, gamma, xs, ys, i) }
	zero := func() {
		for _, p := range params {
			p.Grad.Zero()
		}
	}
	held := func(g *GradPool) (slabs map[*float64]bool, tapes map[*Tape]bool) {
		slabs, tapes = map[*float64]bool{}, map[*Tape]bool{}
		for _, sh := range g.shards {
			if sh != nil {
				slabs[&sh.slab[0]] = true
			}
		}
		for _, tp := range g.tapes {
			tapes[tp] = true
		}
		return slabs, tapes
	}
	empty := func(what string, g *GradPool) {
		t.Helper()
		if len(g.shards) != 0 || len(g.tapes) != 0 {
			t.Fatalf("%s: the pool still names %d shards and %d tapes", what, len(g.shards), len(g.tapes))
		}
		for _, sh := range g.shards[:cap(g.shards)] {
			if sh != nil {
				t.Fatalf("%s: a returned shard is still reachable from the pool", what)
			}
		}
		for _, tp := range g.tapes[:cap(g.tapes)] {
			if tp != nil {
				t.Fatalf("%s: a returned tape is still reachable from the pool", what)
			}
		}
	}

	zero()
	pool := NewGradPool(params, 3)
	wantLoss := pool.Accumulate(len(xs), lossFn)
	want := grads(params)
	slabs, tapes := held(pool)
	if len(slabs) != len(xs) || len(tapes) != 3 {
		t.Fatalf("a %d-item batch on 3 workers holds %d slabs and %d tapes", len(xs), len(slabs), len(tapes))
	}
	pool.Release()
	empty("Release", pool)
	pool.Release()
	empty("second Release", pool)

	// Everything just returned may be lent out again — to this pool or to
	// another one running beside it; neither may see the other's memory.
	other := NewGradPool(params, 2)
	other.Accumulate(len(xs), lossFn)
	zero()
	if got := pool.Accumulate(len(xs), lossFn); got != wantLoss {
		t.Fatalf("loss after Release = %v, want %v", got, wantLoss)
	}
	for pi, g := range grads(params) {
		checkSame(t, "gradient of "+params[pi].Name+" after Release", g, want[pi])
	}
	mine, myTapes := held(pool)
	theirs, theirTapes := held(other)
	for s := range mine {
		if theirs[s] {
			t.Fatal("one slab is held by two pools")
		}
	}
	for tp := range myTapes {
		if theirTapes[tp] {
			t.Fatal("one tape is held by two pools")
		}
	}
	other.Release()
	pool.Release()

	// The way fit uses it: Release deferred, a loss that panics mid-batch.
	for _, workers := range []int{1, 3} {
		pool := NewGradPool(params, workers)
		got := func() (p any) {
			defer func() { p = recover() }()
			defer pool.Release()
			pool.Accumulate(len(xs), lossFn)
			pool.Accumulate(len(xs), func(tp *Tape, i int) *Node {
				if i == 4 {
					panic("bad plan")
				}
				return lossFn(tp, i)
			})
			return nil
		}()
		if got != "bad plan" {
			t.Fatalf("workers=%d: recovered %v, want the loss's panic", workers, got)
		}
		empty("Release after a panic", pool)
		pool.Release()
		empty("Release after a panic, again", pool)
	}
	// And the memory that went back through a panic is as good as any.
	zero()
	pool = NewGradPool(params, 3)
	defer pool.Release()
	pool.Accumulate(len(xs), lossFn)
	for pi, g := range grads(params) {
		checkSame(t, "gradient of "+params[pi].Name+" after a panicked fit", g, want[pi])
	}
}
