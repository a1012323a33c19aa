package nn

import (
	"math/rand"
	"testing"
)

func TestTapeResetReuse(t *testing.T) {
	p := NewParam("w", 1, 1)
	p.Value.Data[0] = 3
	tp := NewTape()
	out := tp.Sum(tp.Square(tp.Leaf(p)))
	tp.Backward(out)
	if p.Grad.Data[0] != 6 {
		t.Fatalf("grad %v, want 6", p.Grad.Data[0])
	}
	p.Grad.Zero()
	tp.Reset()
	out2 := tp.Sum(tp.Square(tp.Leaf(p)))
	tp.Backward(out2)
	if p.Grad.Data[0] != 6 {
		t.Fatalf("after Reset: grad %v, want 6 (stale nodes leaked)", p.Grad.Data[0])
	}
}

func TestFrozenLeafSkipsGradientWork(t *testing.T) {
	frozen := NewParam("w", 4, 4)
	frozen.Frozen = true
	live := NewParam("v", 4, 4)
	rng := rand.New(rand.NewSource(1))
	for i := range frozen.Value.Data {
		frozen.Value.Data[i] = rng.NormFloat64()
		live.Value.Data[i] = rng.NormFloat64()
	}
	tp := NewTape()
	out := tp.Sum(tp.Square(tp.MatMul(tp.Leaf(frozen), tp.Leaf(live))))
	tp.Backward(out)
	if normInf(frozen.Grad) != 0 {
		t.Fatal("frozen parameter accumulated gradient")
	}
	if normInf(live.Grad) == 0 {
		t.Fatal("live parameter got no gradient")
	}
}

func TestFrozenGradientCorrectnessOfLivePath(t *testing.T) {
	// Freezing one operand must not change the other's gradient.
	a := NewParam("a", 3, 3)
	b := NewParam("b", 3, 3)
	rng := rand.New(rand.NewSource(2))
	for i := range a.Value.Data {
		a.Value.Data[i] = rng.NormFloat64()
		b.Value.Data[i] = rng.NormFloat64()
	}
	grad := func(freeze bool) []float64 {
		a.Frozen = freeze
		a.Grad.Zero()
		b.Grad.Zero()
		tp := NewTape()
		out := tp.Sum(tp.Square(tp.MatMul(tp.Leaf(a), tp.Leaf(b))))
		tp.Backward(out)
		return append([]float64(nil), b.Grad.Data...)
	}
	unfrozen := grad(false)
	frozen := grad(true)
	a.Frozen = false
	for i := range unfrozen {
		if unfrozen[i] != frozen[i] {
			t.Fatalf("b's gradient changed when a was frozen: %v vs %v", unfrozen[i], frozen[i])
		}
	}
}

func TestScaleConstGrad(t *testing.T) {
	s := NewParam("s", 1, 1)
	s.Value.Data[0] = 0.5
	k := FromSlice(2, 2, []float64{1, 2, 3, 4})
	checkOp(t, "ScaleConst", []*Param{s}, func(tp *Tape) *Node {
		return tp.Sum(tp.Square(tp.ScaleConst(tp.Leaf(s), k)))
	})
}

func TestScaleConstRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewParam("s", 2, 1)
	tp := NewTape()
	tp.ScaleConst(tp.Leaf(s), NewMatrix(2, 2))
}
