package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestArenaFloatsZeroedAndReused(t *testing.T) {
	var a Arena
	f1 := a.Floats(100)
	if len(f1) != 100 {
		t.Fatalf("len = %d, want 100", len(f1))
	}
	for i := range f1 {
		f1[i] = float64(i)
	}
	a.Reset()
	f2 := a.Floats(100)
	if &f1[0] != &f2[0] {
		t.Fatal("Reset did not rewind to the same backing storage")
	}
	for i, v := range f2 {
		if v != 0 {
			t.Fatalf("f2[%d] = %g after Reset, want 0 (stale data leaked)", i, v)
		}
	}
}

// TestArenaUninitMatrix: the non-clearing allocation bumps the same cursor
// as Matrix — same shape rules, no overlap — and hands recycled memory back
// as it was left, where Matrix hands it back zeroed.
func TestArenaUninitMatrix(t *testing.T) {
	var a Arena
	dirty := a.UninitMatrix(3, 4)
	clean := a.Matrix(3, 4)
	if dirty.Rows != 3 || dirty.Cols != 4 || len(dirty.Data) != 12 || cap(dirty.Data) != 12 {
		t.Fatalf("got %d×%d len %d cap %d", dirty.Rows, dirty.Cols, len(dirty.Data), cap(dirty.Data))
	}
	dirty.Fill(7)
	clean.Fill(9)
	for _, v := range dirty.Data {
		if v != 7 {
			t.Fatal("Matrix was carved out of the UninitMatrix before it")
		}
	}
	a.Reset()
	if again := a.UninitMatrix(3, 4); &again.Data[0] != &dirty.Data[0] || again.Data[5] != 7 {
		t.Fatalf("recycled UninitMatrix reads %v, want the 7 left there", again.Data[5])
	}
	for _, v := range a.Matrix(3, 4).Data {
		if v != 0 {
			t.Fatalf("recycled Matrix reads %v, want 0", v)
		}
	}
	if m := a.UninitMatrix(0, 5); m.Rows != 0 || m.Cols != 5 || len(m.Data) != 0 {
		t.Fatalf("empty UninitMatrix is %d×%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	mustPanic(t, "negative shape", func() { a.UninitMatrix(-1, 2) })
}

func TestArenaMatrixShapesAndOversize(t *testing.T) {
	var a Arena
	m := a.Matrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("got %d×%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	// Larger than the biggest pooled size class: must still work.
	huge := a.Floats(1 << 25)
	if len(huge) != 1<<25 {
		t.Fatalf("oversize len = %d", len(huge))
	}
	a.Release()
}

func TestArenaSteadyStateAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	var a Arena
	fn := func() {
		a.Reset()
		for i := 0; i < 8; i++ {
			a.Matrix(16, 16)
			a.Floats(100)
		}
	}
	if avg := testing.AllocsPerRun(50, fn); avg != 0 {
		t.Fatalf("arena steady state allocates %.2f/op, want 0", avg)
	}
}

// TestArenaReleaseDoesNotAllocate: Release is the exit of every fit, so what
// it puts in the size-class pools must go in as it is. A slice header boxed
// into the pool's interface cost one 24-byte allocation per returned chunk.
func TestArenaReleaseDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	var a Arena
	cycle := func() {
		// Three size classes, one chunk each.
		a.Floats(1 << arenaMinClass)
		a.Floats(1 << (arenaMinClass + 1))
		a.Floats(1 << (arenaMinClass + 3))
		a.Release()
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("get → release → get allocates %.2f objects a cycle, want 0", avg)
	}
	// What comes back is a whole chunk of its class, whatever length the
	// last borrower sliced it to.
	putChunk(newChunk(1500)[:1500])
	if c := newChunk(1500); len(c) != 1<<11 || cap(c) != 1<<11 {
		t.Fatalf("recycled chunk has len %d cap %d, want %d", len(c), cap(c), 1<<11)
	}
	if len(a.chunks) != 0 {
		t.Fatalf("a released arena still holds %d chunks", len(a.chunks))
	}
}

// treeSpans is a 7-node DFS pre-order tree: 0{1{2,3},4{5,6}}.
func treeSpans() []Span {
	sizes := []int{7, 3, 1, 1, 3, 1, 1}
	s := make([]Span, len(sizes))
	for i, sz := range sizes {
		s[i] = Span{Lo: int32(i), Hi: int32(i + sz)}
	}
	return s
}

func maskOf(spans []Span, n int) *Matrix {
	m := NewMatrix(n, n)
	for i, sp := range spans {
		for j := sp.Lo; j < sp.Hi; j++ {
			m.Set(i, int(j), 1)
		}
	}
	return m
}

// TestGradFusedMaskedAttention finite-difference-checks the fused
// MaskedSoftmaxQKT → MatMulSpans pipeline end to end.
func TestGradFusedMaskedAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	spans := treeSpans()
	q := randParam("q", 7, 5, rng)
	k := randParam("k", 7, 5, rng)
	v := randParam("v", 7, 3, rng)
	checkOp(t, "MaskedSoftmaxQKT+MatMulSpans", []*Param{q, k, v}, func(tp *Tape) *Node {
		probs := tp.MaskedSoftmaxQKT(tp.Leaf(q), tp.Leaf(k), 1/math.Sqrt(5), spans)
		return tp.Sum(tp.MatMulSpans(probs, tp.Leaf(v), spans))
	})
}

// TestFusedMatchesComposed verifies the central bitwise-identity claim: the
// fused span path produces exactly the values AND exactly the parameter
// gradients of the composed MatMulNodesTransB → Scale → SoftmaxRowsMasked →
// MatMul chain it replaces.
func TestFusedMatchesComposed(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n, d, dk, dv = 7, 6, 4, 3
	spans := treeSpans()
	mask := maskOf(spans, n)
	att := NewAttention("att", d, dk, dv, rng)
	x := NewMatrix(n, d)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}

	run := func(fused bool) (*Matrix, []*Matrix) {
		for _, p := range att.Params() {
			p.Grad.Zero()
		}
		tp := NewTape()
		var out *Node
		if fused {
			out = att.ApplySpans(tp, tp.Const(x), spans)
		} else {
			out = att.Apply(tp, tp.Const(x), mask)
		}
		loss := tp.Sum(out)
		tp.Backward(loss)
		val := out.Value.Clone()
		var grads []*Matrix
		for _, p := range att.Params() {
			grads = append(grads, p.Grad.Clone())
		}
		return val, grads
	}

	vComposed, gComposed := run(false)
	vFused, gFused := run(true)
	for i, a := range vComposed.Data {
		if a != vFused.Data[i] {
			t.Fatalf("value[%d]: composed %v != fused %v", i, a, vFused.Data[i])
		}
	}
	for pi := range gComposed {
		for i, a := range gComposed[pi].Data {
			if a != gFused[pi].Data[i] {
				t.Fatalf("grad %s[%d]: composed %v != fused %v",
					att.Params()[pi].Name, i, a, gFused[pi].Data[i])
			}
		}
	}
}

// TestMaskedSoftmaxAllNegativeScores pins the -Inf-seeded max scan: a row
// whose unmasked scores are all negative must still normalize to 1, not
// collapse toward an implicit 0 maximum.
func TestMaskedSoftmaxAllNegativeScores(t *testing.T) {
	q := FromSlice(2, 2, []float64{-3, -4, -2, -1})
	k := FromSlice(2, 2, []float64{5, 6, 7, 8}) // all dots strongly negative
	spans := []Span{{0, 2}, {1, 2}}
	dst := NewMatrix(2, 2)
	MaskedSoftmaxQKTInto(dst, q, k, 1, spans)
	for i := 0; i < 2; i++ {
		var sum float64
		for j := 0; j < 2; j++ {
			v := dst.At(i, j)
			if math.IsNaN(v) || v < 0 || v > 1 {
				t.Fatalf("probs[%d,%d] = %v out of range", i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v, want 1", i, sum)
		}
	}
	if dst.At(1, 0) != 0 {
		t.Fatalf("masked position nonzero: %v", dst.At(1, 0))
	}
}

// TestForwardBackwardZeroAlloc is the tentpole's regression guard: one full
// attention+MLP forward/backward/optimizer step on a reused tape must not
// allocate at steady state.
func TestForwardBackwardZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	rng := rand.New(rand.NewSource(13))
	const n, d, dk, dv = 9, 18, 16, 16
	att := NewAttention("att", d, dk, dv, rng)
	mlp := NewMLP("mlp", dv, []int{8, 1}, rng)
	x := NewMatrix(n, d)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	spans := FullSpans(n)
	params := append(att.Params(), mlp.Params()...)
	opt := NewAdam(params, 1e-4)
	tape := NewTape()
	step := func() {
		tape.Reset()
		h := att.ApplySpans(tape, tape.Const(x), spans)
		out := tape.Sum(mlp.Apply(tape, h))
		tape.Backward(out)
		opt.Step()
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("forward+backward+step allocates %.2f/op, want 0", avg)
	}
}

// TestTapePoolRoundTrip exercises GetTape/PutTape reuse.
func TestTapePoolRoundTrip(t *testing.T) {
	tp := GetTape()
	a := tp.Const(FromSlice(1, 2, []float64{1, 2}))
	s := tp.Sum(a)
	if s.Value.At(0, 0) != 3 {
		t.Fatalf("sum = %v", s.Value.At(0, 0))
	}
	PutTape(tp)
	tp2 := GetTape()
	defer PutTape(tp2)
	b := tp2.Const(FromSlice(1, 2, []float64{5, 7}))
	if got := tp2.Sum(b).Value.At(0, 0); got != 12 {
		t.Fatalf("sum after reuse = %v, want 12", got)
	}
}

// oneHotInput builds an n-row feature matrix in DACE's layout: hot one-hot
// columns (bit at types[i]) followed by two dense columns.
func oneHotInput(n, hot int, rng *rand.Rand) (*Matrix, []int) {
	x := NewMatrix(n, hot+2)
	types := make([]int, n)
	for i := 0; i < n; i++ {
		types[i] = rng.Intn(hot)
		x.Set(i, types[i], 1)
		x.Set(i, hot, rng.NormFloat64())
		x.Set(i, hot+1, rng.NormFloat64())
	}
	return x, types
}

// TestGradProjectOneHot finite-difference-checks the sparse projection op.
func TestGradProjectOneHot(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const n, hot, dk = 7, 5, 4
	x, types := oneHotInput(n, hot, rng)
	w := randParam("w", hot+2, dk, rng)
	checkOp(t, "ProjectOneHot", []*Param{w}, func(tp *Tape) *Node {
		return tp.Sum(tp.ProjectOneHot(x, types, hot, tp.Leaf(w)))
	})
}

// TestProjectOneHotMatchesDense verifies the sparse projection's bitwise
// identity with the dense product, for both values and weight gradients,
// through the full attention layer (ApplyOneHot vs Apply).
func TestProjectOneHotMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const n, hot, dk, dv = 7, 16, 6, 3
	spans := treeSpans()
	mask := maskOf(spans, n)
	att := NewAttention("att", hot+2, dk, dv, rng)
	x, types := oneHotInput(n, hot, rng)

	run := func(sparse bool) (*Matrix, []*Matrix) {
		for _, p := range att.Params() {
			p.Grad.Zero()
		}
		tp := NewTape()
		var out *Node
		if sparse {
			out = att.ApplyOneHot(tp, x, types, hot, spans)
		} else {
			out = att.Apply(tp, tp.Const(x), mask)
		}
		tp.Backward(tp.Sum(out))
		val := out.Value.Clone()
		var grads []*Matrix
		for _, p := range att.Params() {
			grads = append(grads, p.Grad.Clone())
		}
		return val, grads
	}

	vDense, gDense := run(false)
	vSparse, gSparse := run(true)
	for i, a := range vDense.Data {
		if a != vSparse.Data[i] {
			t.Fatalf("value[%d]: dense %v != sparse %v", i, a, vSparse.Data[i])
		}
	}
	for pi := range gDense {
		for i, a := range gDense[pi].Data {
			if a != gSparse[pi].Data[i] {
				t.Fatalf("grad %s[%d]: dense %v != sparse %v",
					att.Params()[pi].Name, i, a, gSparse[pi].Data[i])
			}
		}
	}
}
