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
	d, dc := q.Cols, dst.Cols
	// The scores first, four (row, key) pairs per pass taken in row-major
	// order across rows, so short spans still fill four independent
	// chains: each score sums q[i,x]·k[j,x] from +0 in ascending x, then is
	// scaled, exactly as the simple loop forms it.
	var qs, ks [4][]float64
	var at [4]int
	np := 0
	for i := 0; i < q.Rows; i++ {
		sp := spans[i]
		if sp.Lo >= sp.Hi {
			panic(fmt.Sprintf("nn: MaskedSoftmaxQKT row %d fully masked", i))
		}
		qrow := q.Data[i*d : (i+1)*d]
		for j := int(sp.Lo); j < int(sp.Hi); j++ {
			qs[np], ks[np], at[np] = qrow, k.Data[j*d:(j+1)*d], i*dc+j
			if np++; np < 4 {
				continue
			}
			np = 0
			q0, q1, q2, q3 := qs[0], qs[1][:len(qs[0])], qs[2][:len(qs[0])], qs[3][:len(qs[0])]
			k0, k1, k2, k3 := ks[0][:len(q0)], ks[1][:len(q0)], ks[2][:len(q0)], ks[3][:len(q0)]
			var s0, s1, s2, s3 float64
			for x := range q0 {
				s0 += q0[x] * k0[x]
				s1 += q1[x] * k1[x]
				s2 += q2[x] * k2[x]
				s3 += q3[x] * k3[x]
			}
			dst.Data[at[0]], dst.Data[at[1]], dst.Data[at[2]], dst.Data[at[3]] = s0*invScale, s1*invScale, s2*invScale, s3*invScale
		}
	}
	for p := 0; p < np; p++ {
		krow := ks[p][:len(qs[p])]
		var s float64
		for x, qv := range qs[p] {
			s += qv * krow[x]
		}
		dst.Data[at[p]] = s * invScale
	}
	// Then each row's max, compared in ascending key order, and its
	// normalization.
	for i := 0; i < q.Rows; i++ {
		row := dst.Data[i*dc+int(spans[i].Lo) : i*dc+int(spans[i].Hi)]
		max := math.Inf(-1)
		for _, s := range row {
			if s > max {
				max = s
			}
		}
		expNormalize(row, max)
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
// Row i's terms are one MatMulInto with k = 1 over the span's rows of dst —
// a[i, span] as a column times b[i,:], four rows per panel4 call — so every
// element takes one multiply, then one add, per i, in ascending i.
func matMulTransASpansInto(dst, a, b *Matrix, spans []Span) {
	dc := dst.Cols
	for i := 0; i < a.Rows; i++ {
		lo, hi := int(spans[i].Lo), int(spans[i].Hi)
		if lo >= hi {
			continue
		}
		MatMulInto(&Matrix{Rows: hi - lo, Cols: dc, Data: dst.Data[lo*dc : hi*dc]},
			&Matrix{Rows: hi - lo, Cols: 1, Data: a.Data[i*a.Cols+lo : i*a.Cols+hi]},
			&Matrix{Rows: 1, Cols: b.Cols, Data: b.Data[i*b.Cols : (i+1)*b.Cols]})
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
	dc := t.tmp.Matrix(rows, cols)
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
		tmp := t.tmp.Matrix(q.Grad.Rows, q.Grad.Cols)
		MatMulSpansInto(tmp, dc, k.Value, n.spans)
		AddInPlace(q.Grad, tmp)
	}
	if k.NeedsGrad {
		tmp := t.tmp.Matrix(k.Grad.Rows, k.Grad.Cols)
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
	// Row i's span of da is one panel call over bᵀ into a cleared row
	// temporary, then added once: each element is its dot product summed
	// from +0 in ascending k, added whole.
	if a.NeedsGrad {
		cols, gc := a.Value.Cols, n.Grad.Cols
		bT, row := t.transposeOf(b), t.tmp.Floats(cols)
		for i := 0; i < a.Value.Rows; i++ {
			lo, hi := int(n.spans[i].Lo), int(n.spans[i].Hi)
			if lo >= hi {
				continue
			}
			s := row[:hi-lo]
			clear(s)
			if gc > 0 { // with no columns in b, bᵀ is empty and the sums are +0
				panel(s, n.Grad.Data[i*gc:(i+1)*gc], 1, bT.Data[lo:], bT.Cols, gc)
			}
			addTo(a.Grad.Data[i*cols+lo:i*cols+hi], s)
		}
	}
	if b.NeedsGrad {
		tmp := t.tmp.Matrix(b.Grad.Rows, b.Grad.Cols)
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

// formProjectOneHot forms rows [r0, r0+len(dst)/cols) of xᵀ·dy, the weight
// gradient of ProjectOneHot, through the same sparsity: input row i
// contributes dy[i,:] to weight row types[i] and its two scaled copies to
// the cost/card rows hot and hot+1, and only the contributions to rows in
// the block are made. Per element the i-terms arrive in ascending order,
// exactly as MatMulTransAInto produces them.
func formProjectOneHot(n *Node, dst []float64, r0 int) {
	x, dy, types, hot := n.cm, n.Grad, n.idx, int(n.k)
	wc := dy.Cols
	r1 := r0 + len(dst)/wc
	row := func(r int) []float64 {
		if r < r0 || r >= r1 {
			return nil
		}
		return dst[(r-r0)*wc : (r-r0+1)*wc]
	}
	g0, g1 := row(hot), row(hot+1)
	for i := 0; i < dy.Rows; i++ {
		grow := dy.Data[i*wc : (i+1)*wc]
		if gt := row(types[i]); gt != nil {
			addTo(gt, grow)
		}
		// The scaled copies are panel calls with k = 1: c·dy[i,j], then
		// one add.
		if g0 != nil {
			panel(g0, x.Data[i*x.Cols+hot:], 1, grow, 0, 1)
		}
		if g1 != nil {
			panel(g1, x.Data[i*x.Cols+hot+1:], 1, grow, 0, 1)
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
	n.formB = formProjectOneHot
	ProjectOneHotInto(n.Value, x, w.Value, types, hot)
	return n
}

func backProjectOneHot(t *Tape, n *Node) {
	if !n.b.NeedsGrad {
		return
	}
	tmp := t.tmp.Matrix(n.b.Grad.Rows, n.b.Grad.Cols)
	formProjectOneHot(n, tmp.Data, 0)
	AddInPlace(n.b.Grad, tmp)
}
