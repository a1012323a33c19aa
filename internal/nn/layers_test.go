package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// Apply records softmax(Q·Kᵀ/√dk ⊙ mask)·V through the composed ops, mask an
// n×n constant whose zero entries are excluded from each row's softmax. It is
// the reference the fused attention paths are compared against bitwise.
func (a *Attention) Apply(t *Tape, s *Node, mask *Matrix) *Node {
	q := t.MatMul(s, t.Leaf(a.WQ))
	k := t.MatMul(s, t.Leaf(a.WK))
	v := t.MatMul(s, t.Leaf(a.WV))
	scores := t.Scale(t.MatMulNodesTransB(q, k), 1/math.Sqrt(float64(a.DK)))
	attn := t.SoftmaxRowsMasked(scores, mask)
	return t.MatMul(attn, v)
}

// ApplySpans records the same masked attention as Apply through the fused
// span kernels, over dense projections: row i's softmax participates only
// inside spans[i] and masked (i,j) pairs are never computed, in either the
// forward pass or the adjoints.
func (a *Attention) ApplySpans(t *Tape, s *Node, spans []Span) *Node {
	q := t.MatMul(s, t.Leaf(a.WQ))
	k := t.MatMul(s, t.Leaf(a.WK))
	v := t.MatMul(s, t.Leaf(a.WV))
	attn := t.MaskedSoftmaxQKT(q, k, 1/math.Sqrt(float64(a.DK)), spans)
	return t.MatMulSpans(attn, v, spans)
}

func TestDenseShapesAndGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("fc", 4, 3, rng)
	x := randParam("x", 5, 4, rng)
	tp := NewTape()
	y := d.Apply(tp, tp.Leaf(x))
	if y.Value.Rows != 5 || y.Value.Cols != 3 {
		t.Fatalf("Dense output %d×%d, want 5×3", y.Value.Rows, y.Value.Cols)
	}
	params := append(d.Params(), x)
	checkOp(t, "Dense", params, func(tp *Tape) *Node {
		return tp.Sum(tp.Square(d.Apply(tp, tp.Leaf(x))))
	})
}

func TestMLPGradAndDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP("mlp", 6, []int{8, 4, 1}, rng)
	if len(m.Layers) != 3 {
		t.Fatalf("MLP depth %d, want 3", len(m.Layers))
	}
	x := randParam("x", 3, 6, rng)
	checkOp(t, "MLP", append(m.Params(), x), func(tp *Tape) *Node {
		return tp.Sum(tp.Square(m.Apply(tp, tp.Leaf(x))))
	})
}

func TestAttentionMaskedGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	att := NewAttention("att", 5, 7, 6, rng)
	x := randParam("x", 4, 5, rng)
	// Lower-triangular-with-diagonal mask (a chain plan's ancestor relation).
	mask := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		for j := i; j < 4; j++ {
			mask.Set(i, j, 1)
		}
	}
	checkOp(t, "Attention", append(att.Params(), x), func(tp *Tape) *Node {
		return tp.Sum(tp.Square(att.Apply(tp, tp.Leaf(x), mask)))
	})
}

func TestLoRAStartsAsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := NewDense("fc", 8, 4, rng)
	lora := NewLoRADense(base, 2, rng)
	x := randParam("x", 3, 8, rng)
	tp := NewTape()
	y1 := base.Apply(tp, tp.Leaf(x))
	y2 := lora.Apply(tp, tp.Leaf(x))
	for i := range y1.Value.Data {
		if !almostEqual(y1.Value.Data[i], y2.Value.Data[i], 1e-12) {
			t.Fatalf("fresh LoRA changed output at %d: %v vs %v", i, y1.Value.Data[i], y2.Value.Data[i])
		}
	}
}

func TestLoRAFreezeAndTrainOnlyAdapter(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := NewDense("fc", 4, 2, rng)
	lora := NewLoRADense(base, 2, rng)
	lora.FreezeBase()
	baseW := base.W.Value.Clone()

	x := randParam("x", 2, 4, rng)
	target := FromSlice(2, 2, []float64{1, 0, 0, 1})
	opt := NewAdam(lora.Params(), 0.05)
	var last float64
	for i := 0; i < 200; i++ {
		tp := NewTape()
		y := lora.Apply(tp, tp.Leaf(x))
		loss := tp.Mean(tp.Square(tp.Sub(y, tp.Const(target))))
		tp.Backward(loss)
		opt.Step()
		last = loss.Value.Data[0]
	}
	for i := range baseW.Data {
		if base.W.Value.Data[i] != baseW.Data[i] {
			t.Fatal("frozen base weight changed during LoRA fine-tune")
		}
	}
	if last > 0.05 {
		t.Fatalf("LoRA fine-tune failed to fit: loss %v", last)
	}
	if normInf(lora.Up.Value) == 0 {
		t.Fatal("adapter never trained")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := NewParam("w", 1, 3)
	p.Value.Data = []float64{5, -4, 3}
	opt := NewAdam([]*Param{p}, 0.1)
	for i := 0; i < 500; i++ {
		tp := NewTape()
		loss := tp.Sum(tp.Square(tp.Leaf(p)))
		tp.Backward(loss)
		opt.Step()
	}
	if n := normInf(p.Value); n > 1e-3 {
		t.Fatalf("Adam failed to minimize quadratic, |w|∞ = %v", n)
	}
}

func TestAdamSkipsFrozen(t *testing.T) {
	p := NewParam("w", 1, 1)
	p.Value.Data[0] = 1
	p.Frozen = true
	opt := NewAdam([]*Param{p}, 0.1)
	tp := NewTape()
	loss := tp.Sum(tp.Square(tp.Leaf(p)))
	tp.Backward(loss)
	opt.Step()
	if p.Value.Data[0] != 1 {
		t.Fatal("frozen param updated")
	}
	if p.Grad.Data[0] != 0 {
		t.Fatal("frozen param grad not cleared after Step")
	}
}

// TestClipGradNorm: Step rescales the gradients to clipNorm before the
// update — a step on clipped gradients is the step on the gradients scaled
// by hand — and leaves gradients under the clip as they are.
func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", 1, 2)
	p.Grad.Data = []float64{30, 40} // norm 50
	s := clipScale([]*Param{p}, clipNorm)
	if norm := math.Hypot(30*s, 40*s); !almostEqual(norm, clipNorm, 1e-12) {
		t.Fatalf("clipped norm %v, want %v", norm, clipNorm)
	}
	NewAdam([]*Param{p}, 0.1).Step()
	q := NewParam("w", 1, 2)
	q.Grad.Data = []float64{30 * s, 40 * s}
	if clipScale([]*Param{q}, clipNorm) != 1 {
		t.Fatal("the hand-scaled gradients are clipped again")
	}
	NewAdam([]*Param{q}, 0.1).Step()
	checkSame(t, "step on clipped gradients", p.Value.Data, q.Value.Data)
	// Below threshold: untouched.
	p.Grad.Data = []float64{3, 4}
	if s := clipScale([]*Param{p}, clipNorm); s != 1 {
		t.Fatalf("clip scales a gradient of norm 5 by %v", s)
	}
}

func TestSaveLoadParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := NewDense("fc", 3, 2, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, d.Params()); err != nil {
		t.Fatal(err)
	}
	d2 := NewDense("fc", 3, 2, rand.New(rand.NewSource(99)))
	if err := LoadParams(&buf, d2.Params()); err != nil {
		t.Fatal(err)
	}
	for i := range d.W.Value.Data {
		if d.W.Value.Data[i] != d2.W.Value.Data[i] {
			t.Fatal("round trip lost weights")
		}
	}
}

func TestLoadParamsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := NewDense("fc", 3, 2, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, d.Params()); err != nil {
		t.Fatal(err)
	}
	wrong := NewDense("other", 3, 2, rng)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), wrong.Params()); err == nil {
		t.Fatal("expected missing-name error")
	}
	misshapen := NewDense("fc", 2, 2, rng)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), misshapen.Params()); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

func TestNumParamsAndSizeMB(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := NewDense("fc", 10, 5, rng)
	if got := NumParams(d.Params()); got != 55 {
		t.Fatalf("NumParams = %d, want 55", got)
	}
	if got := SizeMB(d.Params()); !almostEqual(got, 55*4.0/(1024*1024), 1e-15) {
		t.Fatalf("SizeMB = %v", got)
	}
}
