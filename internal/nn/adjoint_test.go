package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The MatMul adjoints run on MatMulInto's panel kernels over a transpose:
// dA = dC·Bᵀ as MatMulInto(tmp, dC, Bᵀ) added once, dB's rows as
// MatMulInto over rows of Aᵀ. So do the other a·bᵀ products, MatMulSpans'
// dA and MatMulNodesTransB's forward. The references below are the routes
// they replaced, kept here as the specification of their bits.

// dotRowsGeneric is the dot-form product every a·bᵀ once ran on:
// dst[r·ds+j] += Σ_k a[r·as+k]·b[j·bc+k] for r < rows and j < n, each dot
// product summed from +0 in ascending k and added to dst once. dst must not
// alias a or b.
func dotRowsGeneric(dst []float64, ds int, a []float64, as int, b []float64, bc, rows, k, n int) {
	for r := 0; r < rows; r++ {
		arow := a[r*as:][:k]
		orow := dst[r*ds : r*ds+n]
		for j := range orow {
			brow := b[j*bc:][:len(arow)]
			var s float64
			for x, av := range arow {
				s += av * brow[x]
			}
			orow[j] += s
		}
	}
}

// refMatMulDA adds dc·bᵀ into da the way the dot-form route did.
func refMatMulDA(da, dc, b *Matrix) {
	dotRowsGeneric(da.Data, da.Cols, dc.Data, dc.Cols, b.Data, b.Cols, dc.Rows, dc.Cols, b.Rows)
}

// refMatMulDB forms rows [r0, r0+len(dst)/cols) of aᵀ·dc into dst the way
// the strided route did: one panel call per row, walking column r of a.
func refMatMulDB(dst []float64, a, dc *Matrix, r0 int) {
	if a.Rows == 0 {
		return
	}
	cols := dc.Cols
	for r := 0; r*cols < len(dst); r++ {
		panel(dst[r*cols:(r+1)*cols], a.Data[r0+r:], a.Cols, dc.Data, cols, a.Rows)
	}
}

// adjointSpecials are the values the product must carry bit for bit:
// signed zeros, subnormals, infinities and NaN.
var adjointSpecials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1040,
	math.Inf(1), math.Inf(-1), math.NaN(), 1, -1,
}

func fillAdjoint(rng *rand.Rand, s []float64) {
	for i := range s {
		if rng.Intn(5) == 0 {
			s[i] = adjointSpecials[rng.Intn(len(adjointSpecials))]
		} else {
			s[i] = rng.NormFloat64()
		}
	}
}

func mixedMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	fillAdjoint(rng, m.Data)
	return m
}

// interior is a node as an op records it: a value and a gradient that
// adjoints add into, here holding init.
func interior(v, init *Matrix) *Node {
	return &Node{Value: v, Grad: init.Clone(), NeedsGrad: true}
}

// TestMatMulAdjointsMatchReferences: both MatMul adjoints, for every shape
// of rows 1–9, K 1–40 and the column counts either side of the kernels'
// 4-, 8- and 32-column blocks, and for a few plans taller than a gather
// tile, equal their references bit for bit (any NaN
// matching any NaN: which operand's payload survives NaN+NaN is the
// instruction's choice). dA is checked into a live gradient for a trainable
// weight, a frozen one and an interior operand; dB by the row blocks of the
// ordered pass and whole, as an interior operand's adjoint adds it.
func TestMatMulAdjointsMatchReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	check := func(rows, k, cols int) {
		compareMatMulAdjoints(t, mixedMatrix(rng, rows, k), mixedMatrix(rng, k, cols),
			mixedMatrix(rng, rows, cols), mixedMatrix(rng, rows, k), mixedMatrix(rng, k, cols))
	}
	for rows := 1; rows <= 9; rows++ {
		for k := 1; k <= 40; k++ {
			for _, cols := range []int{1, 8, 16, 31, 32, 33, 64, 128, 160} {
				check(rows, k, cols)
			}
		}
	}
	// Plans taller than one of formMatMulB's tiles: the sum over a's rows
	// crosses tiles.
	for _, rows := range []int{formTile - 1, formTile, formTile + 1, 2*formTile + 3} {
		for _, k := range []int{4, 7, 33} {
			for _, cols := range []int{32, 33, 128} {
				check(rows, k, cols)
			}
		}
	}
}

// compareMatMulAdjoints checks both adjoints of c = a·b for the upstream
// gradient dc against the references; gA and gB are what the operands'
// gradients hold before the adjoint adds into them.
func compareMatMulAdjoints(t *testing.T, aVal, bVal, dc, gA, gB *Matrix) {
	t.Helper()
	k, cols := bVal.Rows, bVal.Cols
	what := fmt.Sprintf("%dx%dx%d", aVal.Rows, k, cols)
	wantA := gA.Clone()
	refMatMulDA(wantA, dc, bVal)
	for _, slot := range []string{"trainable", "frozen", "interior"} {
		tp := NewTape()
		a := interior(aVal, gA)
		b := &Node{Value: bVal}
		if slot != "interior" {
			b = tp.Leaf(&Param{Name: "w", Value: bVal, Grad: NewMatrix(k, cols), Frozen: slot == "frozen"})
		}
		n := tp.MatMul(a, b)
		copy(n.Grad.Data, dc.Data)
		backMatMul(tp, n)
		checkSame(t, what+" dA, b "+slot, a.Grad.Data, wantA.Data)
	}

	// Slot b: a trainable weight's rows, as the ordered pass forms them
	// block by block from +0.
	tp := NewTape()
	p := &Param{Name: "w", Value: bVal, Grad: NewMatrix(k, cols)}
	n := tp.MatMul(&Node{Value: aVal}, tp.Leaf(p))
	copy(n.Grad.Data, dc.Data)
	backMatMul(tp, n)
	for _, bl := range rowBlocks([]*Param{p}) {
		got := make([]float64, (bl.hi-bl.lo)*cols)
		want := make([]float64, len(got))
		formMatMulB(n, got, bl.lo)
		refMatMulDB(want, aVal, dc, bl.lo)
		checkSame(t, fmt.Sprintf("%s dB rows [%d,%d)", what, bl.lo, bl.hi), got, want)
	}

	// Slot b, interior: the product added once into a live gradient.
	tp = NewTape()
	b := interior(bVal, gB)
	n = tp.MatMul(&Node{Value: aVal}, b)
	copy(n.Grad.Data, dc.Data)
	backMatMul(tp, n)
	tmp := make([]float64, k*cols)
	refMatMulDB(tmp, aVal, dc, 0)
	wantB := gB.Clone()
	addTo(wantB.Data, tmp)
	checkSame(t, what+" dB, b interior", b.Grad.Data, wantB.Data)
}

// TestWeightTransposeDiesWithReset: a weight's transpose is formed once per
// tape cycle and shared by every node that reads the weight — and a cycle
// ends at Reset. A weight changed in place between cycles (the optimizer's
// step) gives the new weight's gradients, not the old transpose's.
func TestWeightTransposeDiesWithReset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := randParam("w", 24, 40, rng)
	w.Frozen = true // only dA is formed: the transpose is all that is read
	x := randParam("x", 5, 24, rng)
	x.Frozen = true
	dx := func(tp *Tape) []float64 {
		h := tp.Scale(tp.Leaf(x), 1) // an interior operand: its gradient is dA
		tp.Backward(tp.Sum(tp.Square(tp.Add(tp.MatMul(h, tp.Leaf(w)), tp.MatMul(h, tp.Leaf(w))))))
		return append([]float64(nil), h.Grad.Data...)
	}
	tp := NewTape()
	dx(tp)
	if len(tp.arena.weightsT) != 1 {
		t.Fatalf("two nodes reading one weight formed %d transposes, want 1", len(tp.arena.weightsT))
	}
	for i := range w.Value.Data {
		w.Value.Data[i] = rng.NormFloat64()
	}
	tp.Reset()
	if len(tp.arena.weightsT) != 0 {
		t.Fatal("Reset kept a weight transpose")
	}
	got := dx(tp)
	want := dx(NewTape())
	checkSame(t, "dA after the weight changed across a Reset", got, want)
}

// TestReplayWithParamInSlotA: a weight in slot a has no row-wise form, so
// the ordered pass replays MatMul's adjoint on stand-ins in its own arena,
// rewound before every replay; the transpose of b each replay forms there
// must be that replay's. Two weights in slot a against different b, over
// items spread on one and three workers, match one tape per item.
func TestReplayWithParamInSlotA(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, q := randParam("p", 6, 9, rng), randParam("q", 6, 13, rng)
	params := []*Param{p, q}
	var bs []*Matrix
	for i := 0; i < 9; i++ {
		bs = append(bs, randParam("", 9, 13, rng).Value)
	}
	lossFn := func(tp *Tape, i int) *Node {
		c := tp.MatMul(tp.Leaf(p), tp.Const(bs[i]))
		d := tp.MatMul(tp.Leaf(p), tp.Scale(tp.Const(bs[(i+1)%len(bs)]), 2))
		return tp.Sum(tp.Square(tp.Add(tp.Add(c, d), tp.Leaf(q))))
	}
	for _, x := range params {
		x.Grad.Zero()
	}
	for i := range bs {
		tp := NewTape()
		tp.Backward(lossFn(tp, i))
	}
	want := grads(params)
	for _, workers := range []int{1, 3} {
		for _, x := range params {
			x.Grad.Zero()
		}
		pool := NewGradPool(params, workers)
		pool.Accumulate(len(bs), lossFn)
		pool.Release()
		for pi, g := range grads(params) {
			checkSame(t, fmt.Sprintf("workers=%d: gradient of %s", workers, params[pi].Name), g, want[pi])
		}
	}

	// One item by hand: the loss sums c², so dC = 2c and dP = dC·bᵀ, the
	// dot-form reference.
	p.Grad.Zero()
	tp := NewTape()
	c := tp.MatMul(tp.Leaf(p), tp.Const(bs[0]))
	tp.Backward(tp.Sum(tp.Square(c)))
	dc := c.Value.Clone()
	ScaleInPlace(dc, 2)
	ref := NewMatrix(p.Value.Rows, p.Value.Cols)
	refMatMulDA(ref, dc, bs[0])
	checkSame(t, "one item's dP", p.Grad.Data, ref.Data)
}

// compareSpansDA checks MatMulSpans' dA for c = p·v and the upstream
// gradient dc against the dot-form reference, span by span: gP is what p's
// gradient holds before the adjoint adds into it, and positions outside the
// spans must keep it.
func compareSpansDA(t *testing.T, what string, v, dc, gP *Matrix, spans []Span) {
	t.Helper()
	rows, k := v.Rows, v.Cols
	want := gP.Clone()
	for i, sp := range spans {
		lo, hi := int(sp.Lo), int(sp.Hi)
		if lo < hi {
			dotRowsGeneric(want.Data[i*rows+lo:i*rows+hi], 0, dc.Data[i*k:], 0, v.Data[lo*k:], k, 1, k, hi-lo)
		}
	}
	tp := NewTape()
	p := interior(NewMatrix(rows, rows), gP)
	n := tp.MatMulSpans(p, &Node{Value: v}, spans)
	copy(n.Grad.Data, dc.Data)
	backMatMulSpans(tp, n)
	checkSame(t, what+" MatMulSpans dA", p.Grad.Data, want.Data)
}

// compareTransB checks MatMulNodesTransB's forward a·bᵀ against the
// dot-form reference from +0, with b an activation and a frozen weight.
func compareTransB(t *testing.T, what string, a, b *Matrix) {
	t.Helper()
	want := make([]float64, a.Rows*b.Rows)
	dotRowsGeneric(want, b.Rows, a.Data, a.Cols, b.Data, b.Cols, a.Rows, a.Cols, b.Rows)
	tp := NewTape()
	for _, bn := range []*Node{{Value: b}, tp.Leaf(&Param{Name: "w", Value: b, Frozen: true})} {
		checkSame(t, what+" MatMulNodesTransB", tp.MatMulNodesTransB(&Node{Value: a}, bn).Value.Data, want)
	}
}

// TestTransposedProductsMatchDotRows: MatMulSpans' dA and
// MatMulNodesTransB's forward, both panel over a transpose, equal the
// dot-form reference bit for bit (any NaN matching any NaN) for plans of 1
// to 40 rows, spans of 1 to 9 columns (and some empty ones, which must
// leave their row alone), k either side of the kernels' four-column step and
// their 128-column model shape, and ±0, subnormals, ±Inf and NaN among the
// operands.
func TestTransposedProductsMatchDotRows(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for rows := 1; rows <= 40; rows++ {
		for _, k := range []int{0, 1, 3, 64, 128} {
			what := fmt.Sprintf("%d rows, k=%d", rows, k)
			spans := make([]Span, rows)
			for i := range spans {
				lo := rng.Intn(rows)
				hi := min(rows, lo+1+rng.Intn(9))
				if rng.Intn(8) == 0 {
					hi = lo
				}
				spans[i] = Span{int32(lo), int32(hi)}
			}
			compareSpansDA(t, what, mixedMatrix(rng, rows, k), mixedMatrix(rng, rows, k), mixedMatrix(rng, rows, rows), spans)
			compareTransB(t, what, mixedMatrix(rng, rows, k), mixedMatrix(rng, 1+rng.Intn(40), k))
		}
	}
}
