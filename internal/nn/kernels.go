package nn

import (
	"fmt"
	"math"
)

// Tree-structured attention is half empty: in DFS pre-order, row i of the
// ancestor mask A(p) is exactly the contiguous block [i, i+subtree(i)), so
// the masked (i,j) pairs need never be touched. The kernels in this file
// exploit that: each row carries a Span of participating columns and the
// fused scores→softmax and probabilities·V products iterate only inside it.
// The arithmetic per unmasked element — dot product in index order, scale,
// shifted exp, normalize — is exactly the composition of MatMulNodesTransB,
// Scale and SoftmaxRowsMasked, so the fused path is bitwise identical to
// the unfused one (masked positions hold exact zeros either way).

// Span is a half-open column range [Lo, Hi) of unmasked positions in one
// attention row.
type Span struct{ Lo, Hi int32 }

// FullSpans returns n spans covering all n columns — the dense-attention
// (mask-free) case.
func FullSpans(n int) []Span {
	s := make([]Span, n)
	for i := range s {
		s[i] = Span{0, int32(n)}
	}
	return s
}

// MaskedSoftmaxQKTInto writes softmax rows of (q·kᵀ)·invScale into dst,
// restricting row i to columns [spans[i].Lo, spans[i].Hi); positions outside
// the span are left untouched (dst must be pre-zeroed so they read as exact
// 0 probability). The max subtraction starts from -Inf, so rows whose scores
// are all negative are handled identically to the tape op. Empty spans panic
// like a fully masked softmax row.
func MaskedSoftmaxQKTInto(dst, q, k *Matrix, invScale float64, spans []Span) {
	if q.Cols != k.Cols {
		panic(fmt.Sprintf("nn: MaskedSoftmaxQKT shape mismatch %s · %sᵀ", q.shape(), k.shape()))
	}
	if dst.Rows != q.Rows || dst.Cols != k.Rows || len(spans) != q.Rows {
		panic(fmt.Sprintf("nn: MaskedSoftmaxQKT dst %s, %d spans for %s · %sᵀ", dst.shape(), len(spans), q.shape(), k.shape()))
	}
	d := q.Cols
	for i := 0; i < q.Rows; i++ {
		sp := spans[i]
		if sp.Lo >= sp.Hi {
			panic(fmt.Sprintf("nn: MaskedSoftmaxQKT row %d fully masked", i))
		}
		qrow := q.Data[i*d : (i+1)*d]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		max := math.Inf(-1)
		// Four independent score dots per pass; each accumulates in
		// ascending feature order and the max scan compares in ascending j
		// order, so the result is bitwise identical to the simple loop.
		j := sp.Lo
		for ; j+4 <= sp.Hi; j += 4 {
			k0 := k.Data[int(j)*d : int(j)*d+d][:len(qrow)]
			k1 := k.Data[int(j+1)*d : int(j+1)*d+d][:len(qrow)]
			k2 := k.Data[int(j+2)*d : int(j+2)*d+d][:len(qrow)]
			k3 := k.Data[int(j+3)*d : int(j+3)*d+d][:len(qrow)]
			var s0, s1, s2, s3 float64
			for x, qv := range qrow {
				s0 += qv * k0[x]
				s1 += qv * k1[x]
				s2 += qv * k2[x]
				s3 += qv * k3[x]
			}
			s0 *= invScale
			s1 *= invScale
			s2 *= invScale
			s3 *= invScale
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
			if s0 > max {
				max = s0
			}
			if s1 > max {
				max = s1
			}
			if s2 > max {
				max = s2
			}
			if s3 > max {
				max = s3
			}
		}
		for ; j < sp.Hi; j++ {
			krow := k.Data[int(j)*d : (int(j)+1)*d][:len(qrow)]
			var s float64
			for x, qv := range qrow {
				s += qv * krow[x]
			}
			s *= invScale
			drow[j] = s
			if s > max {
				max = s
			}
		}
		expNormalize(drow[sp.Lo:sp.Hi], max)
	}
}

// expNormalize turns a row of scores whose maximum is max into softmax
// probabilities: shifted exps summed in ascending order, then one division
// each.
func expNormalize(row []float64, max float64) {
	var z float64
	for j, s := range row {
		e := math.Exp(s - max)
		row[j] = e
		z += e
	}
	for j := range row {
		row[j] /= z
	}
}

// OneHotRootSoftmaxInto writes into dst (1×n) the attention probabilities
// of the single query row q over all n rows of x, whose keys are the
// one-hot projection x·w — without materializing them. It is bitwise
// identical to ProjectOneHotInto(k, x, w, types, hot) followed by
// MaskedSoftmaxQKTInto(dst, q, k, invScale, [{0, n}]): key j's element c
// is (w[types[j],c] + cost_j·w[hot,c]) + card_j·w[hot+1,c] as oneHotRow
// forms it, score j sums q[c]·k_j[c] from +0 in ascending c and is then
// scaled, and the max, the exp-sum and the division follow in ascending j.
// The scores come from rootScores eight keys at a time, each key's one-hot
// row of w addressed by its offset: every offset is sliced here, in Go, so
// an out-of-range type panics before any kernel sees an address, and the
// lanes past the last key of a group are padded with row 0 and zero
// features and never stored.
func OneHotRootSoftmaxInto(dst, q, x, w *Matrix, types []int, hot int, invScale float64) {
	if x.Cols != w.Rows || x.Cols != hot+2 || q.Rows != 1 || q.Cols != w.Cols {
		panic(fmt.Sprintf("nn: OneHotRootSoftmax q %s over %s · %s with %d one-hot cols", q.shape(), x.shape(), w.shape(), hot))
	}
	n := x.Rows
	if dst.Rows != 1 || dst.Cols != n || len(types) < n {
		panic(fmt.Sprintf("nn: OneHotRootSoftmaxInto dst %s, %d types for %s", dst.shape(), len(types), x.shape()))
	}
	if n == 0 {
		panic("nn: OneHotRootSoftmax row 0 fully masked")
	}
	wc := w.Cols
	w0 := w.Data[hot*wc : hot*wc+wc]
	w1 := w.Data[(hot+1)*wc : (hot+1)*wc+wc]
	for j0 := 0; j0 < n; j0 += 8 {
		var g keyGroup
		out := dst.Data[j0:min(j0+8, n)]
		for l := range out {
			j := j0 + l
			ty := types[j]
			_ = w.Data[ty*wc : ty*wc+wc]
			g.off[l] = ty * wc
			g.c0[l] = x.Data[j*x.Cols+hot]
			g.c1[l] = x.Data[j*x.Cols+hot+1]
		}
		rootScores(out, &g, q.Data, w.Data, w0, w1, invScale)
	}
	max := math.Inf(-1)
	for _, s := range dst.Data {
		if s > max {
			max = s
		}
	}
	expNormalize(dst.Data, max)
}

// MatMulSpansInto accumulates a·b into dst where row i of a is nonzero only
// inside spans[i]: dst[i,:] += Σ_{j∈span_i} a[i,j]·b[j,:]. Pre-zero dst for
// a plain product. Iteration order matches the dense kernel restricted to
// the span, so results are bitwise identical to dense a·b when a is exactly
// zero outside its spans.
func MatMulSpansInto(dst, a, b *Matrix, spans []Span) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: MatMulSpans shape mismatch %s · %s", a.shape(), b.shape()))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols || len(spans) != a.Rows {
		panic(fmt.Sprintf("nn: MatMulSpansInto dst %s, %d spans for %s · %s", dst.shape(), len(spans), a.shape(), b.shape()))
	}
	bc := b.Cols
	for i := 0; i < a.Rows; i++ {
		lo, hi := int(spans[i].Lo), int(spans[i].Hi)
		if lo >= hi {
			continue
		}
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		panel(orow, arow[lo:hi], 1, b.Data[lo*bc:], bc, hi-lo)
	}
}

// matMulTransASpansInto accumulates aᵀ·b restricted to a's spans:
// dst[j,:] += Σ_i a[i,j]·b[i,:] for j ∈ span_i. It is the shared adjoint
// kernel for both span products (dV of probabilities·V and dK of scoresᵀ·Q).
func matMulTransASpansInto(dst, a, b *Matrix, spans []Span) {
	dc := dst.Cols
	for i := 0; i < a.Rows; i++ {
		sp := spans[i]
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		brow := b.Data[i*b.Cols : (i+1)*b.Cols]
		// Four dst rows per pass, sharing each brow load. Distinct j values
		// touch distinct dst rows and each element still accumulates its
		// i-terms in the outer loop's order, so this is bitwise identical.
		j := sp.Lo
		for ; j+4 <= sp.Hi; j += 4 {
			a0, a1, a2, a3 := arow[j], arow[j+1], arow[j+2], arow[j+3]
			o0 := dst.Data[int(j)*dc : int(j)*dc+dc][:len(brow)]
			o1 := dst.Data[int(j+1)*dc : int(j+1)*dc+dc][:len(brow)]
			o2 := dst.Data[int(j+2)*dc : int(j+2)*dc+dc][:len(brow)]
			o3 := dst.Data[int(j+3)*dc : int(j+3)*dc+dc][:len(brow)]
			for x, bv := range brow {
				o0[x] += a0 * bv
				o1[x] += a1 * bv
				o2[x] += a2 * bv
				o3[x] += a3 * bv
			}
		}
		for ; j < sp.Hi; j++ {
			av := arow[j]
			orow := dst.Data[int(j)*dc : int(j)*dc+dc][:len(brow)]
			for x, bv := range brow {
				orow[x] += av * bv
			}
		}
	}
}

// MaskedSoftmaxQKT records the fused attention-score kernel
// softmax_rows((q·kᵀ)·invScale) where row i participates only inside
// spans[i] — the fusion of MatMulNodesTransB, Scale and SoftmaxRowsMasked
// that never touches masked (i,j) pairs. spans is captured by reference and
// must stay valid until Backward.
func (t *Tape) MaskedSoftmaxQKT(q, k *Node, invScale float64, spans []Span) *Node {
	n := t.node(q.Value.Rows, k.Value.Rows, backMaskedSoftmaxQKT)
	n.a, n.b = q, k
	n.k = invScale
	n.spans = spans
	MaskedSoftmaxQKTInto(n.Value, q.Value, k.Value, invScale, spans)
	return n
}

func backMaskedSoftmaxQKT(t *Tape, n *Node) {
	q, k := n.a, n.b
	rows, cols := n.Value.Rows, n.Value.Cols
	// dScores through the softmax (s ⊙ (dg − ⟨dg, s⟩) per row) and the
	// score scale, materialized sparsely: masked positions are exact zeros.
	dc := t.arena.Matrix(rows, cols)
	for i := 0; i < rows; i++ {
		sp := n.spans[i]
		srow := n.Value.Data[i*cols : (i+1)*cols]
		grow := n.Grad.Data[i*cols : (i+1)*cols]
		var dot float64
		for j := sp.Lo; j < sp.Hi; j++ {
			dot += grow[j] * srow[j]
		}
		drow := dc.Data[i*cols : (i+1)*cols]
		for j := sp.Lo; j < sp.Hi; j++ {
			drow[j] = srow[j] * (grow[j] - dot) * n.k
		}
	}
	// scores = q·kᵀ ⇒ dq = dScores·k ; dk = dScoresᵀ·q, both restricted to
	// the spans where dScores is nonzero.
	if q.NeedsGrad {
		tmp := t.arena.Matrix(q.Grad.Rows, q.Grad.Cols)
		MatMulSpansInto(tmp, dc, k.Value, n.spans)
		AddInPlace(q.Grad, tmp)
	}
	if k.NeedsGrad {
		tmp := t.arena.Matrix(k.Grad.Rows, k.Grad.Cols)
		matMulTransASpansInto(tmp, dc, q.Value, n.spans)
		AddInPlace(k.Grad, tmp)
	}
}

// MatMulSpans records c = a·b where a's rows are nonzero only inside spans
// (the probabilities·V product of masked attention). spans is captured by
// reference and must stay valid until Backward.
func (t *Tape) MatMulSpans(a, b *Node, spans []Span) *Node {
	n := t.node(a.Value.Rows, b.Value.Cols, backMatMulSpans)
	n.a, n.b = a, b
	n.spans = spans
	MatMulSpansInto(n.Value, a.Value, b.Value, spans)
	return n
}

func backMatMulSpans(t *Tape, n *Node) {
	a, b := n.a, n.b
	// da = dc·bᵀ, needed only inside the spans (everything downstream of a
	// masked position is an exact zero); db = aᵀ·dc, skipping a's zeros.
	if a.NeedsGrad {
		cols, bc, gc := a.Value.Cols, b.Value.Cols, n.Grad.Cols
		for i := 0; i < a.Value.Rows; i++ {
			lo, hi := int(n.spans[i].Lo), int(n.spans[i].Hi)
			if lo >= hi {
				continue
			}
			dotRows(a.Grad.Data[i*cols+lo:i*cols+hi], 0, n.Grad.Data[i*gc:(i+1)*gc], 0, b.Value.Data[lo*bc:], bc, 1, gc, hi-lo)
		}
	}
	if b.NeedsGrad {
		tmp := t.arena.Matrix(b.Grad.Rows, b.Grad.Cols)
		matMulTransASpansInto(tmp, a.Value, n.Grad, n.spans)
		AddInPlace(b.Grad, tmp)
	}
}

// ProjectOneHotInto computes dst = x·w exploiting DACE's feature layout: the
// first hot columns of x are a one-hot block (row i has a single 1 at column
// types[i]) and exactly two trailing columns (scaled cost and cardinality)
// are dense. Row i of the product is then w[types[i],:] + cost·w[hot,:] +
// card·w[hot+1,:]. The dense kernel's skipped terms are all exact +0 adds
// that cannot change an IEEE-754 accumulator, and the three retained terms
// are added in the dense kernel's ascending-k order, so the result is
// bitwise identical to MatMulInto at a sixth of the work.
func ProjectOneHotInto(dst, x, w *Matrix, types []int, hot int) {
	if x.Cols != w.Rows || x.Cols != hot+2 {
		panic(fmt.Sprintf("nn: ProjectOneHot %s · %s with %d one-hot cols", x.shape(), w.shape(), hot))
	}
	if dst.Rows != x.Rows || dst.Cols != w.Cols || len(types) < x.Rows {
		panic(fmt.Sprintf("nn: ProjectOneHotInto dst %s, %d types for %s · %s", dst.shape(), len(types), x.shape(), w.shape()))
	}
	wc := w.Cols
	w0 := w.Data[hot*wc : hot*wc+wc]
	w1 := w.Data[(hot+1)*wc : (hot+1)*wc+wc]
	for i := 0; i < x.Rows; i++ {
		ty := types[i]
		// Sliced here, in Go, so an out-of-range type panics before any
		// kernel sees an address.
		wt := w.Data[ty*wc : ty*wc+wc]
		c0 := x.Data[i*x.Cols+hot]
		c1 := x.Data[i*x.Cols+hot+1]
		oneHotRow(dst.Data[i*wc:i*wc+wc], wt, w0, w1, c0, c1)
	}
}

// projectOneHotGradInto accumulates xᵀ·dy into dw through the same sparsity:
// row i contributes dy[i,:] to dw[types[i],:] and its two scaled copies to
// the cost/card rows. Per dw element the i-terms arrive in ascending order,
// exactly as MatMulTransAInto produces them.
func projectOneHotGradInto(dw, x, dy *Matrix, types []int, hot int) {
	wc := dw.Cols
	g0 := dw.Data[hot*wc : hot*wc+wc]
	g1 := dw.Data[(hot+1)*wc : (hot+1)*wc+wc][:len(g0)]
	for i := 0; i < dy.Rows; i++ {
		ty := types[i]
		gt := dw.Data[ty*wc : ty*wc+wc][:len(g0)]
		c0 := x.Data[i*x.Cols+hot]
		c1 := x.Data[i*x.Cols+hot+1]
		grow := dy.Data[i*wc : i*wc+wc][:len(g0)]
		for j := range grow {
			gv := grow[j]
			gt[j] += gv
			g0[j] += c0 * gv
			g1[j] += c1 * gv
		}
	}
}

// ProjectOneHot records dst = x·w for a constant one-hot-structured feature
// matrix x (see ProjectOneHotInto). x needs no gradient, so the adjoint only
// produces dw, and does so touching three weight rows per input row. types
// is captured by reference and must stay valid until Backward.
func (t *Tape) ProjectOneHot(x *Matrix, types []int, hot int, w *Node) *Node {
	n := t.node(x.Rows, w.Value.Cols, backProjectOneHot)
	n.b = w
	n.cm = x
	n.idx = types
	n.k = float64(hot)
	ProjectOneHotInto(n.Value, x, w.Value, types, hot)
	return n
}

func backProjectOneHot(t *Tape, n *Node) {
	if !n.b.NeedsGrad {
		return
	}
	tmp := t.arena.Matrix(n.b.Grad.Rows, n.b.Grad.Cols)
	projectOneHotGradInto(tmp, n.cm, n.Grad, n.idx, int(n.k))
	AddInPlace(n.b.Grad, tmp)
}
