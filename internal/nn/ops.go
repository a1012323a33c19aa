package nn

import (
	"fmt"
	"math"
)

// Every op below records a plain function pointer plus operand fields on the
// node instead of a closure, and draws its output from the tape's arena and
// any adjoint temporaries from its scratch arena, rewound after every
// adjoint — so replaying a reused tape allocates nothing, and a minibatch's
// tape holds what the pass reads, not what each adjoint used once. Adjoints
// that accumulate a matrix product into a gradient first materialize the
// product from +0 and add it once, preserving the summation order (and
// therefore the bitwise results) of the original temp-then-AddInPlace
// formulation. No adjoint writes a parameter's gradient: a Leaf has
// NeedsGrad false, and the ordered pass (pass.go) forms that share —
// through formB where the op has one, by replaying the adjoint otherwise.

// MatMul records c = a·b.
func (t *Tape) MatMul(a, b *Node) *Node {
	if a.Value.Cols != b.Value.Rows {
		panic(fmt.Sprintf("nn: MatMul shape mismatch %s · %s", a.Value.shape(), b.Value.shape()))
	}
	n := t.node(a.Value.Rows, b.Value.Cols, backMatMul)
	n.a, n.b = a, b
	n.formB = formMatMulB
	MatMulInto(n.Value, a.Value, b.Value)
	return n
}

func backMatMul(t *Tape, n *Node) {
	// dL/da = dL/dc · bᵀ ; dL/db = aᵀ · dL/dc, both on MatMulInto's panel
	// kernels. dA runs over bᵀ (a weight's formed once per tape cycle), summed
	// from +0 and added once: the association of a dot product added whole.
	switch {
	case n.a.NeedsGrad && n.fresh:
		// a's gradient is still the +0 the walk cleared: the sum goes
		// straight in, and +0 + s is s.
		MatMulInto(n.a.Grad, n.Grad, t.transposeOf(n.b))
	case n.a.NeedsGrad:
		tmp := t.tmp.Matrix(n.a.Grad.Rows, n.a.Grad.Cols)
		MatMulInto(tmp, n.Grad, t.transposeOf(n.b))
		AddInPlace(n.a.Grad, tmp)
	}
	if n.b.NeedsGrad {
		tmp := t.tmp.Matrix(n.b.Grad.Rows, n.b.Grad.Cols)
		formMatMulB(n, tmp.Data, 0)
		AddInPlace(n.b.Grad, tmp)
	}
}

// formTile is how many rows of a formMatMulB gathers per panel4 call.
const formTile = 64

// formMatMulB forms rows [r0, r0+len(dst)/cols) of aᵀ·dc into dst; row r
// of aᵀ is column r0+r of a. Where the CPU has panel4, up to four such
// columns are gathered at a time, formTile rows of a per tile, into a tile
// on the stack, and run through panel4 at full width: the transpose never
// outlives the block's rows, and nothing of it is kept on the tape. On
// other CPUs every row is one strided panel call. Every element is summed
// from dst's +0 over a's rows in ascending order, whatever the tiling, so
// the rows of any block come out as they do in the whole product.
func formMatMulB(n *Node, dst []float64, r0 int) {
	a, dc := n.a.Value, n.Grad
	cols := dc.Cols
	if cols == 0 || a.Rows == 0 {
		return
	}
	rows := len(dst) / cols
	if !useAVX512 {
		for r := 0; r < rows; r++ {
			panel(dst[r*cols:(r+1)*cols], a.Data[r0+r:], a.Cols, dc.Data, cols, a.Rows)
		}
		return
	}
	var tile [4 * formTile]float64
	for r := 0; r < rows; r += 4 {
		nr := min(4, rows-r)
		for k0 := 0; k0 < a.Rows; k0 += formTile {
			kc := min(formTile, a.Rows-k0)
			src := a.Data[k0*a.Cols+r0+r:]
			for k := 0; k < kc; k++ {
				for i, v := range src[k*a.Cols:][:nr] {
					tile[i*formTile+k] = v
				}
			}
			panel4(dst[r*cols:], cols, tile[:], formTile, dc.Data[k0*cols:], cols, kc, cols, nr)
		}
	}
}

// MatMulNodesTransB records c = a·bᵀ over graph nodes.
func (t *Tape) MatMulNodesTransB(a, b *Node) *Node {
	if a.Value.Cols != b.Value.Cols {
		panic(fmt.Sprintf("nn: MatMulTransB shape mismatch %s · %sᵀ", a.Value.shape(), b.Value.shape()))
	}
	n := t.node(a.Value.Rows, b.Value.Rows, backMatMulNodesTransB)
	n.a, n.b = a, b
	// MatMulInto over bᵀ sums each element from the value's +0 in ascending
	// k. No adjoint is running, so the transpose is the forward's own
	// temporary, rewound as the op returns.
	MatMulInto(n.Value, a.Value, t.transposeOf(b))
	t.tmp.Reset()
	return n
}

func backMatMulNodesTransB(t *Tape, n *Node) {
	// c = a·bᵀ ⇒ da = dc·b ; db = dcᵀ·a
	if n.a.NeedsGrad {
		tmp := t.tmp.Matrix(n.a.Grad.Rows, n.a.Grad.Cols)
		MatMulInto(tmp, n.Grad, n.b.Value)
		AddInPlace(n.a.Grad, tmp)
	}
	if n.b.NeedsGrad {
		tmp := t.tmp.Matrix(n.b.Grad.Rows, n.b.Grad.Cols)
		MatMulTransAInto(tmp, n.Grad, n.a.Value)
		AddInPlace(n.b.Grad, tmp)
	}
}

// Add records c = a + b for same-shape operands.
func (t *Tape) Add(a, b *Node) *Node {
	if !a.Value.SameShape(b.Value) {
		panic(fmt.Sprintf("nn: Add shape mismatch %s vs %s", a.Value.shape(), b.Value.shape()))
	}
	n := t.unary(a, backAdd)
	n.b = b
	AddInPlace(n.Value, b.Value)
	return n
}

func backAdd(t *Tape, n *Node) {
	if n.a.NeedsGrad {
		AddInPlace(n.a.Grad, n.Grad)
	}
	if n.b.NeedsGrad {
		AddInPlace(n.b.Grad, n.Grad)
	}
}

// Sub records c = a − b for same-shape operands.
func (t *Tape) Sub(a, b *Node) *Node {
	if !a.Value.SameShape(b.Value) {
		panic(fmt.Sprintf("nn: Sub shape mismatch %s vs %s", a.Value.shape(), b.Value.shape()))
	}
	n := t.unary(a, backSub)
	n.b = b
	for i, x := range b.Value.Data {
		n.Value.Data[i] -= x
	}
	return n
}

func backSub(t *Tape, n *Node) {
	if n.a.NeedsGrad {
		AddInPlace(n.a.Grad, n.Grad)
	}
	if n.b.NeedsGrad {
		for i, g := range n.Grad.Data {
			n.b.Grad.Data[i] -= g
		}
	}
}

// AddRow records c[i,j] = a[i,j] + row[0,j], broadcasting a 1×n bias over rows.
func (t *Tape) AddRow(a, row *Node) *Node {
	if row.Value.Rows != 1 || row.Value.Cols != a.Value.Cols {
		panic(fmt.Sprintf("nn: AddRow wants 1×%d bias, got %s", a.Value.Cols, row.Value.shape()))
	}
	n := t.unary(a, backAddRow)
	n.b = row
	v := n.Value
	for i := 0; i < v.Rows; i++ {
		for j := 0; j < v.Cols; j++ {
			v.Data[i*v.Cols+j] += row.Value.Data[j]
		}
	}
	return n
}

func backAddRow(t *Tape, n *Node) {
	if n.a.NeedsGrad {
		AddInPlace(n.a.Grad, n.Grad)
	}
	if n.b.NeedsGrad {
		g := n.Grad
		for i := 0; i < g.Rows; i++ {
			for j := 0; j < g.Cols; j++ {
				n.b.Grad.Data[j] += g.Data[i*g.Cols+j]
			}
		}
	}
}

// Scale records c = k·a for a compile-time constant k.
func (t *Tape) Scale(a *Node, k float64) *Node {
	n := t.unary(a, backScale)
	n.k = k
	ScaleInPlace(n.Value, k)
	return n
}

func backScale(t *Tape, n *Node) {
	if !n.a.NeedsGrad {
		return
	}
	for i, g := range n.Grad.Data {
		n.a.Grad.Data[i] += g * n.k
	}
}

// ReLU records the rectified linear unit max(0, x).
func (t *Tape) ReLU(a *Node) *Node {
	n := t.assigned(a.Value.Rows, a.Value.Cols, backReLU)
	n.a = a
	reluTo(n.Value.Data, a.Value.Data)
	return n
}

func backReLU(t *Tape, n *Node) {
	if n.a.NeedsGrad {
		reluGrad(n.a.Grad.Data, n.Grad.Data, n.a.Value.Data)
	}
}

// Abs records the element-wise absolute value, with subgradient 0 at 0.
func (t *Tape) Abs(a *Node) *Node {
	n := t.unary(a, backAbs)
	for i, x := range n.Value.Data {
		n.Value.Data[i] = math.Abs(x)
	}
	return n
}

func backAbs(t *Tape, n *Node) {
	if !n.a.NeedsGrad {
		return
	}
	for i, g := range n.Grad.Data {
		switch x := n.a.Value.Data[i]; {
		case x > 0:
			n.a.Grad.Data[i] += g
		case x < 0:
			n.a.Grad.Data[i] -= g
		}
	}
}

// Sum records the scalar sum of all elements.
func (t *Tape) Sum(a *Node) *Node {
	var s float64
	for _, x := range a.Value.Data {
		s += x
	}
	n := t.node(1, 1, backSum)
	n.a = a
	n.Value.Data[0] = s
	return n
}

func backSum(t *Tape, n *Node) {
	if !n.a.NeedsGrad {
		return
	}
	g := n.Grad.Data[0]
	for i := range n.a.Grad.Data {
		n.a.Grad.Data[i] += g
	}
}

// Mean records the scalar mean of all elements.
func (t *Tape) Mean(a *Node) *Node {
	return t.Scale(t.Sum(a), 1/float64(len(a.Value.Data)))
}

// MeanRows records the column-wise mean over rows, producing a 1×cols node.
// It is the pooling step of deep-set style models (e.g. MSCN).
func (t *Tape) MeanRows(a *Node) *Node {
	n := t.node(1, a.Value.Cols, backMeanRows)
	n.a = a
	v := n.Value
	for i := 0; i < a.Value.Rows; i++ {
		for j := 0; j < a.Value.Cols; j++ {
			v.Data[j] += a.Value.Data[i*a.Value.Cols+j]
		}
	}
	n.k = 1 / float64(a.Value.Rows)
	ScaleInPlace(v, n.k)
	return n
}

func backMeanRows(t *Tape, n *Node) {
	a := n.a
	if !a.NeedsGrad {
		return
	}
	for i := 0; i < a.Value.Rows; i++ {
		for j := 0; j < a.Value.Cols; j++ {
			a.Grad.Data[i*a.Value.Cols+j] += n.Grad.Data[j] * n.k
		}
	}
}

// ConcatCols records the horizontal concatenation of same-row-count nodes.
func (t *Tape) ConcatCols(parts ...*Node) *Node {
	if len(parts) == 0 {
		panic("nn: ConcatCols needs at least one operand")
	}
	rows := parts[0].Value.Rows
	total := 0
	for _, p := range parts {
		if p.Value.Rows != rows {
			panic(fmt.Sprintf("nn: ConcatCols row mismatch %d vs %d", rows, p.Value.Rows))
		}
		total += p.Value.Cols
	}
	n := t.assigned(rows, total, backConcatCols)
	n.parts = parts
	v := n.Value
	off := 0
	for _, p := range parts {
		for i := 0; i < rows; i++ {
			copy(v.Data[i*total+off:i*total+off+p.Value.Cols], p.Value.Data[i*p.Value.Cols:(i+1)*p.Value.Cols])
		}
		off += p.Value.Cols
	}
	return n
}

func backConcatCols(t *Tape, n *Node) {
	rows, total := n.Value.Rows, n.Value.Cols
	off := 0
	for _, p := range n.parts {
		if p.NeedsGrad {
			for i := 0; i < rows; i++ {
				for j := 0; j < p.Value.Cols; j++ {
					p.Grad.Data[i*p.Value.Cols+j] += n.Grad.Data[i*total+off+j]
				}
			}
		}
		off += p.Value.Cols
	}
}

// ConcatRows records the vertical concatenation of same-column-count nodes.
func (t *Tape) ConcatRows(parts ...*Node) *Node {
	if len(parts) == 0 {
		panic("nn: ConcatRows needs at least one operand")
	}
	cols := parts[0].Value.Cols
	total := 0
	for _, p := range parts {
		if p.Value.Cols != cols {
			panic(fmt.Sprintf("nn: ConcatRows col mismatch %d vs %d", cols, p.Value.Cols))
		}
		total += p.Value.Rows
	}
	n := t.assigned(total, cols, backConcatRows)
	n.parts = parts
	off := 0
	for _, p := range parts {
		copy(n.Value.Data[off*cols:], p.Value.Data)
		off += p.Value.Rows
	}
	return n
}

func backConcatRows(t *Tape, n *Node) {
	cols := n.Value.Cols
	off := 0
	for _, p := range n.parts {
		if p.NeedsGrad {
			for i := range p.Grad.Data {
				p.Grad.Data[i] += n.Grad.Data[off*cols+i]
			}
		}
		off += p.Value.Rows
	}
}

// SelectRows records the sub-matrix consisting of the given row indices.
func (t *Tape) SelectRows(a *Node, idx []int) *Node {
	cols := a.Value.Cols
	n := t.assigned(len(idx), cols, backSelectRows)
	n.a = a
	n.idx = idx
	for i, r := range idx {
		copy(n.Value.Data[i*cols:(i+1)*cols], a.Value.Data[r*cols:(r+1)*cols])
	}
	return n
}

func backSelectRows(t *Tape, n *Node) {
	if !n.a.NeedsGrad {
		return
	}
	cols := n.Value.Cols
	for i, r := range n.idx {
		for j := 0; j < cols; j++ {
			n.a.Grad.Data[r*cols+j] += n.Grad.Data[i*cols+j]
		}
	}
}

// SoftmaxRowsMasked records a row-wise softmax where only positions with
// mask[i][j] != 0 participate; masked-out positions get probability 0.
// Every row must have at least one unmasked position. The mask itself is a
// constant (no gradient flows into it).
func (t *Tape) SoftmaxRowsMasked(a *Node, mask *Matrix) *Node {
	if !a.Value.SameShape(mask) {
		panic(fmt.Sprintf("nn: SoftmaxRowsMasked mask shape %s vs scores %s", mask.shape(), a.Value.shape()))
	}
	rows, cols := a.Value.Rows, a.Value.Cols
	n := t.node(rows, cols, backSoftmaxRowsMasked)
	n.a = a
	n.cm = mask
	v := n.Value
	for i := 0; i < rows; i++ {
		max := math.Inf(-1)
		for j := 0; j < cols; j++ {
			if mask.Data[i*cols+j] != 0 && a.Value.Data[i*cols+j] > max {
				max = a.Value.Data[i*cols+j]
			}
		}
		if math.IsInf(max, -1) {
			panic(fmt.Sprintf("nn: SoftmaxRowsMasked row %d fully masked", i))
		}
		var z float64
		for j := 0; j < cols; j++ {
			if mask.Data[i*cols+j] != 0 {
				e := math.Exp(a.Value.Data[i*cols+j] - max)
				v.Data[i*cols+j] = e
				z += e
			}
		}
		for j := 0; j < cols; j++ {
			v.Data[i*cols+j] /= z
		}
	}
	return n
}

func backSoftmaxRowsMasked(t *Tape, n *Node) {
	if !n.a.NeedsGrad {
		return
	}
	// Row-wise softmax adjoint: da = s ⊙ (dg − ⟨dg, s⟩).
	rows, cols := n.Value.Rows, n.Value.Cols
	for i := 0; i < rows; i++ {
		var dot float64
		for j := 0; j < cols; j++ {
			dot += n.Grad.Data[i*cols+j] * n.Value.Data[i*cols+j]
		}
		for j := 0; j < cols; j++ {
			s := n.Value.Data[i*cols+j]
			n.a.Grad.Data[i*cols+j] += s * (n.Grad.Data[i*cols+j] - dot)
		}
	}
}

// MulConst records the element-wise product with a constant matrix (no
// gradient into the constant). It implements per-node loss weighting.
func (t *Tape) MulConst(a *Node, k *Matrix) *Node {
	if !a.Value.SameShape(k) {
		panic(fmt.Sprintf("nn: MulConst shape mismatch %s vs %s", a.Value.shape(), k.shape()))
	}
	n := t.unary(a, backMulConst)
	n.cm = k
	for i, x := range k.Data {
		n.Value.Data[i] *= x
	}
	return n
}

func backMulConst(t *Tape, n *Node) {
	if !n.a.NeedsGrad {
		return
	}
	for i, g := range n.Grad.Data {
		n.a.Grad.Data[i] += g * n.cm.Data[i]
	}
}

// ScaleConst records c = s·k where s is a 1×1 node (e.g. a learnable scalar
// parameter) and k a constant matrix. QueryFormer's learnable tree-distance
// bias b_d is built from these.
func (t *Tape) ScaleConst(s *Node, k *Matrix) *Node {
	if s.Value.Rows != 1 || s.Value.Cols != 1 {
		panic(fmt.Sprintf("nn: ScaleConst wants a 1×1 scalar, got %s", s.Value.shape()))
	}
	n := t.assigned(k.Rows, k.Cols, backScaleConst)
	n.a = s
	n.cm = k
	copy(n.Value.Data, k.Data)
	ScaleInPlace(n.Value, s.Value.Data[0])
	return n
}

func backScaleConst(t *Tape, n *Node) {
	if !n.a.NeedsGrad {
		return
	}
	var g float64
	for i, gv := range n.Grad.Data {
		g += gv * n.cm.Data[i]
	}
	n.a.Grad.Data[0] += g
}

// LayerNorm records row-wise layer normalization with learnable gain and
// bias (1×cols parameters).
func (t *Tape) LayerNorm(a, gain, bias *Node) *Node {
	const eps = 1e-5
	rows, cols := a.Value.Rows, a.Value.Cols
	if gain.Value.Rows != 1 || gain.Value.Cols != cols || bias.Value.Rows != 1 || bias.Value.Cols != cols {
		panic("nn: LayerNorm gain/bias must be 1×cols")
	}
	n := t.node(rows, cols, backLayerNorm)
	n.a, n.b, n.c = a, gain, bias
	n.aux = t.arena.Matrix(rows, cols) // normalized activations, reused by the adjoint
	n.auxF = t.arena.Floats(rows)      // per-row inverse stddevs
	v, norm, invstd := n.Value, n.aux, n.auxF
	for i := 0; i < rows; i++ {
		var mu float64
		for j := 0; j < cols; j++ {
			mu += a.Value.Data[i*cols+j]
		}
		mu /= float64(cols)
		var va float64
		for j := 0; j < cols; j++ {
			d := a.Value.Data[i*cols+j] - mu
			va += d * d
		}
		va /= float64(cols)
		is := 1 / math.Sqrt(va+eps)
		invstd[i] = is
		for j := 0; j < cols; j++ {
			x := (a.Value.Data[i*cols+j] - mu) * is
			norm.Data[i*cols+j] = x
			v.Data[i*cols+j] = x*gain.Value.Data[j] + bias.Value.Data[j]
		}
	}
	return n
}

func backLayerNorm(t *Tape, n *Node) {
	a, gain, bias := n.a, n.b, n.c
	norm, invstd := n.aux, n.auxF
	rows, cols := n.Value.Rows, n.Value.Cols
	dx := t.tmp.Floats(cols)
	for i := 0; i < rows; i++ {
		var sumG, sumGX float64
		for j := 0; j < cols; j++ {
			g := n.Grad.Data[i*cols+j]
			if gain.NeedsGrad {
				gain.Grad.Data[j] += g * norm.Data[i*cols+j]
			}
			if bias.NeedsGrad {
				bias.Grad.Data[j] += g
			}
			dn := g * gain.Value.Data[j]
			dx[j] = dn
			sumG += dn
			sumGX += dn * norm.Data[i*cols+j]
		}
		if !a.NeedsGrad {
			continue
		}
		nc := float64(cols)
		for j := 0; j < cols; j++ {
			x := norm.Data[i*cols+j]
			a.Grad.Data[i*cols+j] += invstd[i] / nc * (nc*dx[j] - sumG - x*sumGX)
		}
	}
}
