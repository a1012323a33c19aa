// Package nn is a small, dependency-free deep-learning substrate: dense
// matrices, tape-based reverse-mode automatic differentiation, common layers
// (fully connected, masked attention, layer normalization, LoRA adapters)
// and the Adam optimizer.
//
// It exists because this repository reproduces a learned cost estimator
// (DACE, ICDE 2024) in pure Go; the models involved are small (tens of
// thousands of parameters), so a straightforward float64 CPU implementation
// is both sufficient and easy to verify with finite-difference gradient
// checks (see gradcheck.go).
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero-valued rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice builds a rows×cols matrix that copies data (len must equal rows*cols).
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("nn: FromSlice got %d values for %d×%d", len(data), rows, cols))
	}
	m := NewMatrix(rows, cols)
	copy(m.Data, data)
	return m
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v in place.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and other have identical dimensions.
func (m *Matrix) SameShape(other *Matrix) bool {
	return m.Rows == other.Rows && m.Cols == other.Cols
}

func (m *Matrix) shape() string { return fmt.Sprintf("%d×%d", m.Rows, m.Cols) }

// The dense product kernels below are deliberately branchless in their
// inner loops: the inputs on every hot path are dense, so the historical
// `if av == 0 { continue }` zero-skip cost an unpredictable branch per
// element for essentially no skipped work. Structurally sparse products
// (the tree-attention mask) use the explicit span kernels in kernels.go
// instead, which skip whole masked regions rather than testing elements.

// MatMulInto accumulates a·b into dst (dst must be pre-zeroed for a plain
// product). dst must not alias a or b. Every dst element receives its terms
// in ascending k order: where the CPU has panel4, rows go to it four at a
// time at full width (the last group one to three rows, the last columns
// masked), each row of b read once per group instead of once per row;
// elsewhere each row is one panel call.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: MatMul shape mismatch %s · %s", a.shape(), b.shape()))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMulInto dst %s for %s · %s", dst.shape(), a.shape(), b.shape()))
	}
	k, cols := a.Cols, dst.Cols
	if useAVX512 {
		if k > 0 && cols > 0 {
			for i := 0; i < a.Rows; i += 4 {
				panel4(dst.Data[i*cols:], cols, a.Data[i*k:], k, b.Data, cols, k, cols, min(4, a.Rows-i))
			}
		}
		return
	}
	for i := 0; i < a.Rows; i++ {
		panel(dst.Data[i*cols:(i+1)*cols], a.Data[i*k:(i+1)*k], 1, b.Data, cols, k)
	}
}

// MatMulTransAInto accumulates aᵀ·b into dst (pre-zero dst for a plain
// product). dst must not alias a or b. Row i of dst is one panel call that
// walks column i of a, so every dst element accumulates its k-terms in
// ascending k order.
func MatMulTransAInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: MatMulTransA shape mismatch %sᵀ · %s", a.shape(), b.shape()))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMulTransAInto dst %s for %sᵀ · %s", dst.shape(), a.shape(), b.shape()))
	}
	if a.Rows == 0 {
		return
	}
	for i := 0; i < a.Cols; i++ {
		orow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		panel(orow, a.Data[i:], a.Cols, b.Data, b.Cols, a.Rows)
	}
}

// AddInPlace accumulates src into dst element-wise.
func AddInPlace(dst, src *Matrix) {
	if !dst.SameShape(src) {
		panic(fmt.Sprintf("nn: AddInPlace shape mismatch %s vs %s", dst.shape(), src.shape()))
	}
	addTo(dst.Data, src.Data)
}

// ScaleInPlace multiplies every element of m by c.
func ScaleInPlace(m *Matrix, c float64) {
	for i := range m.Data {
		m.Data[i] *= c
	}
}

// XavierInit fills m with uniform Glorot initialization for a fanIn×fanOut layer.
func XavierInit(m *Matrix, fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}
