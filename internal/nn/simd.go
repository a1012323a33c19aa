package nn

// The axpy-form products — MatMulInto, MatMulSpansInto, MatMulTransAInto and
// ProjectOneHotInto — all reduce, per output row, to one of two primitives:
//
//	panel:     dst[j] += Σ_k a[k·as]·b[k·bc+j]      (k ascending)
//	oneHotRow: dst[j]  = (wt[j] + c0·w0[j]) + c1·w1[j]
//
// Both index the output along j and never add across j, so a vector unit
// whose lanes run across j performs, in every lane, exactly the scalar
// sequence of one multiply then one add per term (DESIGN §7). On amd64 with
// AVX2 the dispatchers in simd_amd64.go hand the multiple-of-four body of a
// row to assembly and the tail to the Go bodies below; everywhere else the
// Go bodies are the only path. They are also the reference the differential
// tests compare the assembly against.

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
