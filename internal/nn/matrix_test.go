package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// normInf returns the maximum absolute element of m (0 for an empty matrix).
func normInf(m *Matrix) float64 {
	var max float64
	for _, v := range m.Data {
		max = math.Max(max, math.Abs(v))
	}
	return max
}

// matMul returns a·b in a new matrix.
func matMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

func TestMatMulBasic(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := matMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	matMul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestMatMulTransVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(4, 5)
	b := NewMatrix(4, 6)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	// aᵀ·b via explicit transpose.
	at := NewMatrix(5, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	got := NewMatrix(5, 6)
	MatMulTransAInto(got, a, b)
	want := matMul(at, b)
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("MatMulTransA[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
	// a·bᵀ where now shapes line up: (4×5)·(6×5)ᵀ.
	c := NewMatrix(6, 5)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	ct := NewMatrix(5, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			ct.Set(j, i, c.At(i, j))
		}
	}
	got2 := NewTape().MatMulNodesTransB(&Node{Value: a}, &Node{Value: c}).Value
	want2 := matMul(a, ct)
	for i := range want2.Data {
		if !almostEqual(got2.Data[i], want2.Data[i], 1e-12) {
			t.Fatalf("MatMulNodesTransB[%d] = %v, want %v", i, got2.Data[i], want2.Data[i])
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone is shallow")
	}
}

func TestRowVectorAndAt(t *testing.T) {
	v := FromSlice(1, 3, []float64{3, 1, 4})
	if v.Rows != 1 || v.Cols != 3 || v.At(0, 2) != 4 {
		t.Fatalf("row vector wrong: %+v", v)
	}
	v.Set(0, 1, 7)
	if v.At(0, 1) != 7 {
		t.Fatal("Set/At mismatch")
	}
}

// Property: matrix multiplication distributes over addition.
func TestMatMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(5)
		k := 1 + rng.Intn(5)
		a := NewMatrix(n, m)
		b := NewMatrix(m, k)
		c := NewMatrix(m, k)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		for i := range c.Data {
			c.Data[i] = rng.NormFloat64()
		}
		bc := b.Clone()
		AddInPlace(bc, c)
		left := matMul(a, bc)
		right := matMul(a, b)
		AddInPlace(right, matMul(a, c))
		for i := range left.Data {
			if !almostEqual(left.Data[i], right.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXavierInitBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMatrix(10, 20)
	XavierInit(m, 10, 20, rng)
	limit := math.Sqrt(6.0 / 30.0)
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("Xavier value %v exceeds limit %v", v, limit)
		}
	}
	if normInf(m) == 0 {
		t.Fatal("Xavier left matrix zero")
	}
}
