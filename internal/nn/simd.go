package nn

// The axpy-form products — MatMulInto, MatMulSpansInto, MatMulTransAInto and
// ProjectOneHotInto — all reduce, per output row, to one of two primitives:
//
//	panel:     dst[j] += Σ_k a[k·as]·b[k·bc+j]      (k ascending)
//	oneHotRow: dst[j]  = (wt[j] + c0·w0[j]) + c1·w1[j]
//
// Both index the output along j and never add across j, so a vector unit
// whose lanes run across j performs, in every lane, exactly the scalar
// sequence of one multiply then one add per term (DESIGN §7). The dot-form
// product a·bᵀ (MatMulTransBInto and the dA adjoint of MatMulSpans) and the
// element-wise accumulate under every adjoint are two more:
//
//	dotRows: dst[r·ds+j] += Σ_k a[r·as+k]·b[j·bc+k]  (k ascending from +0,
//	                                                  the sum added once)
//	addTo:   dst[i] += src[i]
//
// dotRows sums along k, the contiguous axis of both operands, so its lanes
// still run across j: four rows of b are transposed in registers, four k at
// a time, and each lane keeps its own output's running sum. Two more are
// element-wise, the two halves of ReLU:
//
//	reluTo:   dst[i]  = src[i] < 0 ? +0 : src[i]
//	reluGrad: dst[i]  = x[i] > 0 ? dst[i] + g[i] : dst[i]
//
// They select, they do not mask: a NaN or -0 input passes through the
// forward untouched, and a gradient element whose input was not positive
// keeps its bits (adding a masked +0 would turn a -0 into +0).
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

// dotRowsGeneric is the portable body of dotRows: rows rows of a (stride as,
// k contiguous terms each) against n rows of b (stride bc), into rows rows
// of dst (stride ds). dst must not alias a or b.
func dotRowsGeneric(dst []float64, ds int, a []float64, as int, b []float64, bc, rows, k, n int) {
	for r := 0; r < rows; r++ {
		arow := a[r*as:][:k]
		orow := dst[r*ds : r*ds+n]
		// Four independent dot products per pass: each accumulator still
		// sums its terms in ascending k order (bitwise identical to the
		// simple loop), but the four add chains pipeline instead of
		// serializing on one accumulator's latency.
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*bc:][:len(arow)]
			b1 := b[(j+1)*bc:][:len(arow)]
			b2 := b[(j+2)*bc:][:len(arow)]
			b3 := b[(j+3)*bc:][:len(arow)]
			var s0, s1, s2, s3 float64
			for x, av := range arow {
				s0 += av * b0[x]
				s1 += av * b1[x]
				s2 += av * b2[x]
				s3 += av * b3[x]
			}
			orow[j] += s0
			orow[j+1] += s1
			orow[j+2] += s2
			orow[j+3] += s3
		}
		for ; j < n; j++ {
			brow := b[j*bc:][:len(arow)]
			var s float64
			for x, av := range arow {
				s += av * brow[x]
			}
			orow[j] += s
		}
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
