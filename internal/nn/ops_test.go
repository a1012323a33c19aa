package nn

import (
	"math"
	"math/rand"
	"testing"
)

// randParam fills a named parameter with standard normal values.
func randParam(name string, rows, cols int, rng *rand.Rand) *Param {
	p := NewParam(name, rows, cols)
	for i := range p.Value.Data {
		p.Value.Data[i] = rng.NormFloat64()
	}
	return p
}

// checkOp gradient-checks a scalar function of the given params.
func checkOp(t *testing.T, name string, params []*Param, f func(t *Tape) *Node) {
	t.Helper()
	if worst := GradCheck(params, f); worst > 1e-5 {
		t.Errorf("%s: gradient check failed, worst relative error %.3g", name, worst)
	}
}

// Square records the element-wise square: the tests' loss. No model uses
// it, so it lives here.
func (t *Tape) Square(a *Node) *Node {
	n := t.unary(a, backSquare)
	for i, x := range n.Value.Data {
		n.Value.Data[i] = x * x
	}
	return n
}

func backSquare(t *Tape, n *Node) {
	if !n.a.NeedsGrad {
		return
	}
	for i, g := range n.Grad.Data {
		n.a.Grad.Data[i] += 2 * g * n.a.Value.Data[i]
	}
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randParam("a", 3, 4, rng)
	b := randParam("b", 4, 2, rng)
	checkOp(t, "MatMul", []*Param{a, b}, func(tp *Tape) *Node {
		return tp.Sum(tp.MatMul(tp.Leaf(a), tp.Leaf(b)))
	})
}

func TestGradMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randParam("a", 3, 4, rng)
	b := randParam("b", 5, 4, rng)
	checkOp(t, "MatMulNodesTransB", []*Param{a, b}, func(tp *Tape) *Node {
		return tp.Sum(tp.MatMulNodesTransB(tp.Leaf(a), tp.Leaf(b)))
	})
}

func TestGradAddSubMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randParam("a", 2, 3, rng)
	b := randParam("b", 2, 3, rng)
	checkOp(t, "Add", []*Param{a, b}, func(tp *Tape) *Node {
		return tp.Sum(tp.Add(tp.Leaf(a), tp.Leaf(b)))
	})
	checkOp(t, "Sub", []*Param{a, b}, func(tp *Tape) *Node {
		return tp.Sum(tp.Square(tp.Sub(tp.Leaf(a), tp.Leaf(b))))
	})
}

func TestGradAddRow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randParam("a", 3, 4, rng)
	b := randParam("b", 1, 4, rng)
	checkOp(t, "AddRow", []*Param{a, b}, func(tp *Tape) *Node {
		return tp.Sum(tp.Square(tp.AddRow(tp.Leaf(a), tp.Leaf(b))))
	})
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randParam("a", 3, 3, rng)
	checkOp(t, "ReLU", []*Param{a}, func(tp *Tape) *Node {
		return tp.Sum(tp.ReLU(tp.Leaf(a)))
	})
	checkOp(t, "Abs", []*Param{a}, func(tp *Tape) *Node {
		return tp.Sum(tp.Abs(tp.Leaf(a)))
	})
	checkOp(t, "Square", []*Param{a}, func(tp *Tape) *Node {
		return tp.Sum(tp.Square(tp.Leaf(a)))
	})
}

func TestGradReductionsAndConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randParam("a", 4, 3, rng)
	b := randParam("b", 4, 2, rng)
	checkOp(t, "Mean", []*Param{a}, func(tp *Tape) *Node {
		return tp.Mean(tp.Square(tp.Leaf(a)))
	})
	checkOp(t, "MeanRows", []*Param{a}, func(tp *Tape) *Node {
		return tp.Sum(tp.Square(tp.MeanRows(tp.Leaf(a))))
	})
	checkOp(t, "ConcatCols", []*Param{a, b}, func(tp *Tape) *Node {
		return tp.Sum(tp.Square(tp.ConcatCols(tp.Leaf(a), tp.Leaf(b))))
	})
	c := randParam("c", 2, 3, rng)
	checkOp(t, "ConcatRows", []*Param{a, c}, func(tp *Tape) *Node {
		return tp.Sum(tp.Square(tp.ConcatRows(tp.Leaf(a), tp.Leaf(c))))
	})
	checkOp(t, "SelectRows", []*Param{a}, func(tp *Tape) *Node {
		return tp.Sum(tp.Square(tp.SelectRows(tp.Leaf(a), []int{0, 2, 2})))
	})
}

func TestGradSoftmaxMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randParam("a", 3, 3, rng)
	mask := FromSlice(3, 3, []float64{
		1, 1, 1,
		0, 1, 1,
		0, 0, 1,
	})
	checkOp(t, "SoftmaxRowsMasked", []*Param{a}, func(tp *Tape) *Node {
		return tp.Sum(tp.Square(tp.SoftmaxRowsMasked(tp.Leaf(a), mask)))
	})
}

func TestSoftmaxMaskedZeroesMaskedEntries(t *testing.T) {
	a := NewParam("a", 2, 3)
	a.Value.Data = []float64{5, 1, 2, 3, 4, 5}
	mask := FromSlice(2, 3, []float64{1, 0, 1, 1, 1, 1})
	tp := NewTape()
	out := tp.SoftmaxRowsMasked(tp.Leaf(a), mask)
	if out.Value.At(0, 1) != 0 {
		t.Fatalf("masked position got probability %v", out.Value.At(0, 1))
	}
	for i := 0; i < 2; i++ {
		var s float64
		for j := 0; j < 3; j++ {
			s += out.Value.At(i, j)
		}
		if !almostEqual(s, 1, 1e-12) {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxFullyMaskedRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for fully masked row")
		}
	}()
	a := NewParam("a", 1, 2)
	mask := NewMatrix(1, 2)
	tp := NewTape()
	tp.SoftmaxRowsMasked(tp.Leaf(a), mask)
}

func TestGradConstOps(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randParam("a", 3, 3, rng)
	k := NewMatrix(3, 3)
	for i := range k.Data {
		k.Data[i] = rng.Float64()
	}
	checkOp(t, "MulConst", []*Param{a}, func(tp *Tape) *Node {
		return tp.Sum(tp.MulConst(tp.Leaf(a), k))
	})
}

func TestGradLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randParam("a", 4, 6, rng)
	gain := randParam("gain", 1, 6, rng)
	bias := randParam("bias", 1, 6, rng)
	checkOp(t, "LayerNorm", []*Param{a, gain, bias}, func(tp *Tape) *Node {
		return tp.Sum(tp.Square(tp.LayerNorm(tp.Leaf(a), tp.Leaf(gain), tp.Leaf(bias))))
	})
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar Backward")
		}
	}()
	tp := NewTape()
	a := tp.Const(NewMatrix(2, 2))
	tp.Backward(a)
}

func TestConstReceivesNoUsefulGradient(t *testing.T) {
	// Gradient into a Const node is accumulated but never visible to a
	// parameter, so optimizing around constants must not corrupt params.
	a := NewParam("a", 1, 1)
	a.Value.Data[0] = 2
	tp := NewTape()
	c := tp.Const(FromSlice(1, 1, []float64{3}))
	out := tp.Sum(tp.MatMul(tp.Leaf(a), c))
	tp.Backward(out)
	if a.Grad.Data[0] != 3 {
		t.Fatalf("dL/da = %v, want 3", a.Grad.Data[0])
	}
}

func TestGradientsAccumulateAcrossBackward(t *testing.T) {
	a := NewParam("a", 1, 1)
	a.Value.Data[0] = 1
	for i := 0; i < 2; i++ {
		tp := NewTape()
		out := tp.Sum(tp.Scale(tp.Leaf(a), 2))
		tp.Backward(out)
	}
	if a.Grad.Data[0] != 4 {
		t.Fatalf("accumulated grad = %v, want 4", a.Grad.Data[0])
	}
	a.Grad.Zero()
	if a.Grad.Data[0] != 0 {
		t.Fatal("Grad.Zero did not clear")
	}
}

// poisonArena overwrites every chunk a holds (and 4 MB more) with a NaN and
// rewinds it, so the next cycle is handed that NaN wherever the arena does
// not clear.
func poisonArena(a *Arena) {
	a.Reset()
	for i := 0; i < 512; i++ {
		a.UninitMatrix(1, 1<<arenaMinClass).Fill(sentinel)
	}
	a.Reset()
}

// TestEveryAdjointSkipsConstOperands drives every recorded op with Const
// operands through Backward. A Const has no gradient matrix, so an adjoint
// that forgets its NeedsGrad guard is a nil dereference here, not in a
// fine-tune (whose cached attention output enters the head as a Const). Each
// op also runs on a tape whose recycled arena memory is all NaN: a value
// taken without a clear (Tape.assigned) that its op does not fully assign
// shows up as a difference from the fresh tape's bits.
func TestEveryAdjointSkipsConstOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	mat := func(rows, cols int) *Matrix { return randParam("", rows, cols, rng).Value }
	a, b, bt, row, sq := mat(5, 4), mat(4, 3), mat(3, 4), mat(1, 4), mat(5, 5)
	mask := NewMatrix(5, 5)
	spans := make([]Span, 5)
	for i := range spans {
		spans[i] = Span{Lo: int32(i), Hi: 5}
		for j := i; j < 5; j++ {
			mask.Set(i, j, 1)
		}
	}
	// One-hot features: 3 type columns then cost and card.
	x, types := NewMatrix(5, 5), []int{0, 2, 1, 1, 0}
	for i, ty := range types {
		x.Set(i, ty, 1)
		x.Set(i, 3, rng.NormFloat64())
		x.Set(i, 4, rng.NormFloat64())
	}
	w := mat(5, 3)
	scalar := mat(1, 1)

	ops := []struct {
		name string
		op   func(tp *Tape) *Node
	}{
		{"MatMul", func(tp *Tape) *Node { return tp.MatMul(tp.Const(a), tp.Const(b)) }},
		{"MatMulNodesTransB", func(tp *Tape) *Node { return tp.MatMulNodesTransB(tp.Const(a), tp.Const(bt)) }},
		{"Add", func(tp *Tape) *Node { return tp.Add(tp.Const(a), tp.Const(a)) }},
		{"Sub", func(tp *Tape) *Node { return tp.Sub(tp.Const(a), tp.Const(a)) }},
		{"AddRow", func(tp *Tape) *Node { return tp.AddRow(tp.Const(a), tp.Const(row)) }},
		{"Scale", func(tp *Tape) *Node { return tp.Scale(tp.Const(a), 0.5) }},
		{"ReLU", func(tp *Tape) *Node { return tp.ReLU(tp.Const(a)) }},
		{"Abs", func(tp *Tape) *Node { return tp.Abs(tp.Const(a)) }},
		{"Square", func(tp *Tape) *Node { return tp.Square(tp.Const(a)) }},
		{"Sum", func(tp *Tape) *Node { return tp.Sum(tp.Const(a)) }},
		{"Mean", func(tp *Tape) *Node { return tp.Mean(tp.Const(a)) }},
		{"MeanRows", func(tp *Tape) *Node { return tp.MeanRows(tp.Const(a)) }},
		{"ConcatCols", func(tp *Tape) *Node { return tp.ConcatCols(tp.Const(a), tp.Const(sq), tp.Const(a)) }},
		{"ConcatRows", func(tp *Tape) *Node { return tp.ConcatRows(tp.Const(a), tp.Const(row), tp.Const(a)) }},
		{"SelectRows", func(tp *Tape) *Node { return tp.SelectRows(tp.Const(a), []int{4, 0, 0, 2}) }},
		{"SoftmaxRowsMasked", func(tp *Tape) *Node { return tp.SoftmaxRowsMasked(tp.Const(sq), mask) }},
		{"MulConst", func(tp *Tape) *Node { return tp.MulConst(tp.Const(a), a) }},
		{"ScaleConst", func(tp *Tape) *Node { return tp.ScaleConst(tp.Const(scalar), a) }},
		{"LayerNorm", func(tp *Tape) *Node { return tp.LayerNorm(tp.Const(a), tp.Const(row), tp.Const(row)) }},
		{"MaskedSoftmaxQKT", func(tp *Tape) *Node { return tp.MaskedSoftmaxQKT(tp.Const(a), tp.Const(a), 0.5, spans) }},
		{"MatMulSpans", func(tp *Tape) *Node { return tp.MatMulSpans(tp.Const(sq), tp.Const(a), spans) }},
		{"ProjectOneHot", func(tp *Tape) *Node { return tp.ProjectOneHot(x, types, 3, tp.Const(w)) }},
	}
	for _, tc := range ops {
		fresh := NewTape()
		want := tc.op(fresh)
		fresh.Backward(fresh.Sum(want))

		recycled := NewTape()
		poisonArena(recycled.arena)
		got := tc.op(recycled)
		if !got.Value.SameShape(want.Value) {
			t.Fatalf("%s: shape %s on a recycled arena, %s on a fresh one", tc.name, got.Value.shape(), want.Value.shape())
		}
		for i, v := range want.Value.Data {
			if math.Float64bits(got.Value.Data[i]) != math.Float64bits(v) {
				t.Fatalf("%s: element %d = %v on a NaN-poisoned arena, %v on a fresh one", tc.name, i, got.Value.Data[i], v)
			}
		}
		recycled.Backward(recycled.Sum(got))
		for i, g := range got.Grad.Data {
			if g != 1 {
				t.Fatalf("%s: output gradient element %d = %v on a NaN-poisoned arena, want the 1 Sum sends back", tc.name, i, g)
			}
		}
	}
}
