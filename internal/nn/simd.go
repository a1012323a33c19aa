package nn

// The products — MatMulInto, MatMulSpansInto, MatMulTransAInto and
// ProjectOneHotInto — all reduce, per output row, to one of two primitives:
//
//	panel:     dst[j] += Σ_k a[k·as]·b[k·bc+j]      (k ascending)
//	oneHotRow: dst[j]  = (wt[j] + c0·w0[j]) + c1·w1[j]
//
// Both index the output along j and never add across j, so a vector unit
// whose lanes run across j performs, in every lane, exactly the scalar
// sequence of one multiply then one add per term (DESIGN §7). A product
// a·bᵀ is panel over bᵀ, summed from +0 and added once where it
// accumulates. The element-wise accumulate under every adjoint is one more
// primitive, and the two halves of ReLU are two more:
//
//	addTo:    dst[i] += src[i]
//	reluTo:   dst[i]  = src[i] < 0 ? +0 : src[i]
//	reluGrad: dst[i]  = x[i] > 0 ? dst[i] + g[i] : dst[i]
//
// The ReLU halves select, they do not mask: a NaN or -0 input passes
// through the forward untouched, and a gradient element whose input was not
// positive keeps its bits (adding a masked +0 would turn a -0 into +0).
//
// The one primitive that sums along its operands' contiguous axis scores a
// single query row against up to eight one-hot keys whose rows it addresses
// by offset, so the keys are never materialized:
//
//	rootScores: dst[l] = (Σ_c q[c]·((w[off_l+c] + c0_l·w0[c]) + c1_l·w1[c]))·s
//	                                                 (c ascending from +0)
//
// Each lane forms its key's element exactly as oneHotRow does and keeps its
// own running sum, so per lane the sequence is the scalar one.
//
// On amd64 with AVX2 the dispatchers in simd_amd64.go hand the
// multiple-of-four body of a row to assembly and the tail to the Go bodies
// below; everywhere else the Go bodies are the only path. They are also the
// reference the differential tests compare the assembly against.

// panelGeneric is the portable body of panel. dst must not alias a or b.
func panelGeneric(dst, a []float64, as int, b []float64, bc, k int) {
	if len(dst) == 0 {
		return
	}
	// Four b-rows per pass with a scalar temp chain: each dst[j] sees the
	// same adds in the same k order as the simple loop, but is loaded and
	// stored once per pass instead of once per k.
	i := 0
	for ; i+4 <= k; i += 4 {
		a0, a1, a2, a3 := a[i*as], a[(i+1)*as], a[(i+2)*as], a[(i+3)*as]
		b0 := b[i*bc:][:len(dst)]
		b1 := b[(i+1)*bc:][:len(dst)]
		b2 := b[(i+2)*bc:][:len(dst)]
		b3 := b[(i+3)*bc:][:len(dst)]
		for j := range dst {
			s := dst[j] + a0*b0[j]
			s += a1 * b1[j]
			s += a2 * b2[j]
			s += a3 * b3[j]
			dst[j] = s
		}
	}
	for ; i < k; i++ {
		av := a[i*as]
		brow := b[i*bc:][:len(dst)]
		for j := range dst {
			dst[j] += av * brow[j]
		}
	}
}

// oneHotRowGeneric is the portable body of oneHotRow; wt, w0 and w1 hold at
// least len(dst) elements. dst must not alias them.
func oneHotRowGeneric(dst, wt, w0, w1 []float64, c0, c1 float64) {
	wt, w0, w1 = wt[:len(dst)], w0[:len(dst)], w1[:len(dst)]
	for j := range dst {
		s := wt[j]
		s += c0 * w0[j]
		s += c1 * w1[j]
		dst[j] = s
	}
}

// addToGeneric is the portable body of addTo; dst holds at least len(src)
// elements.
func addToGeneric(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] += v
	}
}

// reluToGeneric is the portable body of reluTo; dst holds at least len(src)
// elements.
func reluToGeneric(dst, src []float64) {
	dst = dst[:len(src)]
	for i, x := range src {
		if x < 0 {
			x = 0
		}
		dst[i] = x
	}
}

// reluGradGeneric is the portable body of reluGrad: g and x hold at least
// len(dst) elements, and dst must not alias either.
func reluGradGeneric(dst, g, x []float64) {
	g, x = g[:len(dst)], x[:len(dst)]
	for i := range dst {
		if x[i] > 0 {
			dst[i] += g[i]
		}
	}
}

// keyGroup is one rootScores call's keys: per lane the element offset of
// the key's one-hot row in w and its two dense features (scaled cost and
// cardinality). Lanes past the group's last key stay zero: row 0 of w, no
// features.
type keyGroup struct {
	off    [8]int
	c0, c1 [8]float64
}

// rootScoresGeneric is the portable body of rootScores: lanes [0, len(dst))
// of g, len(dst) ≤ 8. w holds every lane's row w[off:off+len(q)]; w0 and w1
// hold at least len(q) elements.
func rootScoresGeneric(dst []float64, g *keyGroup, q, w, w0, w1 []float64, invScale float64) {
	w0, w1 = w0[:len(q)], w1[:len(q)]
	for l := range dst {
		wt := w[g.off[l]:][:len(q)]
		c0, c1 := g.c0[l], g.c1[l]
		var s float64
		for c, qv := range q {
			k := wt[c]
			k += c0 * w0[c]
			k += c1 * w1[c]
			s += qv * k
		}
		dst[l] = s * invScale
	}
}
