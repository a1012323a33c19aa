package nn

// useAVX2 is the one dispatch point of the kernel layer: set once at package
// init from the CPU and the OS, read by panel and oneHotRow, never written
// again. There is deliberately no way to set it from outside — both paths
// produce the same bits, so there is nothing to choose.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM halves across context switches (CPUID.1:ECX OSXSAVE+AVX, XCR0 bits
// 1–2, CPUID.7:EBX AVX2). The kernels' 256-bit multiply, add and broadcast
// are AVX encodings; AVX2 is the gate because it is the generation they
// were measured on, and a decade of hardware has both.
func detectAVX2() bool {
	const osxsave, avx, avx2, xmmYmm = 1 << 27, 1 << 28, 1 << 5, 0b110
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if lo, _ := xgetbv(); lo&xmmYmm != xmmYmm {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// useAVX512 is the dispatch point of the one kernel with a 512-bit body,
// panel4; like useAVX2 it is set once, here, from the CPU and the OS.
var useAVX512 = useAVX2 && detectAVX512()

// detectAVX512 reports, on a CPU that passed detectAVX2, whether it
// implements AVX-512F (CPUID.7:EBX bit 16) and the OS saves the opmask
// registers, the upper halves of ZMM0–15 and ZMM16–31 (XCR0 bits 5–7).
func detectAVX512() bool {
	const avx512f, zmmState = 1 << 16, 0b111 << 5
	if lo, _ := xgetbv(); lo&zmmState != zmmState {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx512f != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// panelAVX2 runs panel over dst[0:n) for n a positive multiple of 4 and
// k ≥ 1. It checks nothing: the caller has proven every address in range.
//
//go:noescape
func panelAVX2(dst, a *float64, as int, b *float64, bc, k, n int)

// oneHotRowAVX2 runs oneHotRow over [0:n) of each operand for n a positive
// multiple of 4. It checks nothing.
//
//go:noescape
func oneHotRowAVX2(dst, wt, w0, w1 *float64, c0, c1 float64, n int)

// panel4AVX512 runs panel4 for n a positive multiple of 32 and k ≥ 1. It
// checks nothing.
//
//go:noescape
func panel4AVX512(dst *float64, ds int, a *float64, as int, b *float64, bc, k, n int)

// rootScoresAVX512 runs rootScores over all eight lanes of grp into dst[0:8)
// for d ≥ 1 key columns. It checks nothing.
//
//go:noescape
func rootScoresAVX512(dst *float64, grp *keyGroup, q, w, w0, w1 *float64, d int, invScale float64)

// dotRowsAVX2 runs dotRows for 1 ≤ rows ≤ 4, k ≥ 1 and n a positive
// multiple of 4. It checks nothing.
//
//go:noescape
func dotRowsAVX2(dst *float64, ds int, a *float64, as int, b *float64, bc, rows, k, n int)

// addToAVX2 adds src[0:n) into dst[0:n) for n a positive multiple of 4. It
// checks nothing.
//
//go:noescape
func addToAVX2(dst, src *float64, n int)

// reluToAVX2 writes reluTo over [0:n) for n a positive multiple of 4;
// reluGradAVX2 likewise. They check nothing.
//
//go:noescape
func reluToAVX2(dst, src *float64, n int)

//go:noescape
func reluGradAVX2(dst, grad, x *float64, n int)

// panel4 is panel over four rows at once: dst[r·ds+j] += Σ_k a[r·as+k]·
// b[k·bc+j] for r < 4 and j < n, k ascending, where n is a positive
// multiple of 32 and k ≥ 1. Each vector of b is loaded once for the four
// rows. It exists only where useAVX512 is set; the rows of dst must not
// alias each other, a or b. As in panel, the furthest element the assembly
// will touch of each operand is indexed in Go first.
func panel4(dst []float64, ds int, a []float64, as int, b []float64, bc, k, n int) {
	if ds < 0 || as < 0 || bc < 0 {
		panic("nn: negative kernel stride")
	}
	if k < 1 || n < 32 || n&31 != 0 {
		panic("nn: panel4 needs k ≥ 1 and a positive multiple of 32 columns")
	}
	_, _, _ = dst[3*ds+n-1], a[3*as+k-1], b[(k-1)*bc+n-1]
	panel4AVX512(&dst[0], ds, &a[0], as, &b[0], bc, k, n)
}

// panel accumulates dst[j] += Σ_k a[k·as]·b[k·bc+j] for k = 0..k-1 in
// ascending order. dst must not alias a or b. The assembly has no bounds
// checks, so the furthest element it will read of a and of b is indexed
// here first — a short operand panics in Go exactly as the generic loop
// would — and only then are the base addresses taken.
func panel(dst, a []float64, as int, b []float64, bc, k int) {
	if n := len(dst) &^ 3; useAVX2 && n > 0 && k > 0 {
		if as < 0 || bc < 0 {
			panic("nn: negative kernel stride")
		}
		_, _ = a[(k-1)*as], b[(k-1)*bc+len(dst)-1]
		panelAVX2(&dst[0], &a[0], as, &b[0], bc, k, n)
		dst, b = dst[n:], b[n:]
	}
	panelGeneric(dst, a, as, b, bc, k)
}

// oneHotRow writes dst[j] = (wt[j] + c0·w0[j]) + c1·w1[j]; wt, w0 and w1
// hold at least len(dst) elements and must not alias dst.
func oneHotRow(dst, wt, w0, w1 []float64, c0, c1 float64) {
	wt, w0, w1 = wt[:len(dst)], w0[:len(dst)], w1[:len(dst)]
	if n := len(dst) &^ 3; useAVX2 && n > 0 {
		oneHotRowAVX2(&dst[0], &wt[0], &w0[0], &w1[0], c0, c1, n)
		dst, wt, w0, w1 = dst[n:], wt[n:], w0[n:], w1[n:]
	}
	oneHotRowGeneric(dst, wt, w0, w1, c0, c1)
}

// rootScores writes dst[l] = (Σ_c q[c]·k_l[c])·invScale for the first
// len(dst) ≤ 8 lanes of g, where k_l[c] = (w[g.off[l]+c] + g.c0[l]·w0[c]) +
// g.c1[l]·w1[c]; every lane's row of w, and w0 and w1, hold at least len(q)
// elements — the caller has proven it for the lanes it set, and an unset
// lane reads row 0. The AVX-512 body computes all eight lanes (eight key
// columns at a time, transposed in registers from the lanes' rows) into a
// scratch vector and the first len(dst) are kept.
func rootScores(dst []float64, g *keyGroup, q, w, w0, w1 []float64, invScale float64) {
	if d := len(q); useAVX512 && d > 0 && len(dst) > 0 {
		_, _, _ = w[d-1], w0[d-1], w1[d-1]
		var out [8]float64
		rootScoresAVX512(&out[0], g, &q[0], &w[0], &w0[0], &w1[0], d, invScale)
		copy(dst, out[:])
		return
	}
	rootScoresGeneric(dst, g, q, w, w0, w1, invScale)
}

// dotRows accumulates dst[r·ds+j] += Σ_k a[r·as+k]·b[j·bc+k] for r < rows
// and j < n: each dot product is summed from +0 in ascending k order and
// added to dst once. dst must not alias a or b. The assembly takes the
// output columns in fours and the rows of a in blocks of up to four (a
// block shares each transposed tile of b); the column tail goes to the Go
// body. As in panel, the furthest element the assembly will touch of each
// operand is indexed here first.
func dotRows(dst []float64, ds int, a []float64, as int, b []float64, bc, rows, k, n int) {
	if n4 := n &^ 3; useAVX2 && n4 > 0 && k > 0 && rows > 0 {
		if ds < 0 || as < 0 || bc < 0 {
			panic("nn: negative kernel stride")
		}
		_, _, _ = dst[(rows-1)*ds+n-1], a[(rows-1)*as+k-1], b[(n-1)*bc+k-1]
		for r := 0; r < rows; r += 4 {
			dotRowsAVX2(&dst[r*ds], ds, &a[r*as], as, &b[0], bc, min(4, rows-r), k, n4)
		}
		if n4 == n {
			return
		}
		dst, b, n = dst[n4:], b[n4*bc:], n-n4
	}
	dotRowsGeneric(dst, ds, a, as, b, bc, rows, k, n)
}

// addTo accumulates dst[i] += src[i] over len(src) elements; dst holds at
// least that many and must not partially overlap src.
func addTo(dst, src []float64) {
	dst = dst[:len(src)]
	if n := len(src) &^ 3; useAVX2 && n > 0 {
		addToAVX2(&dst[0], &src[0], n)
		dst, src = dst[n:], src[n:]
	}
	addToGeneric(dst, src)
}

// reluTo writes dst[i] = src[i] < 0 ? +0 : src[i] over len(src) elements;
// dst holds at least that many and must not partially overlap src.
func reluTo(dst, src []float64) {
	dst = dst[:len(src)]
	if n := len(src) &^ 3; useAVX2 && n > 0 {
		reluToAVX2(&dst[0], &src[0], n)
		dst, src = dst[n:], src[n:]
	}
	reluToGeneric(dst, src)
}

// reluGrad accumulates g[i] into dst[i] wherever x[i] > 0 and leaves every
// other element of dst as it is; g and x hold at least len(dst) elements and
// must not alias dst.
func reluGrad(dst, g, x []float64) {
	g, x = g[:len(dst)], x[:len(dst)]
	if n := len(dst) &^ 3; useAVX2 && n > 0 {
		reluGradAVX2(&dst[0], &g[0], &x[0], n)
		dst, g, x = dst[n:], g[n:], x[n:]
	}
	reluGradGeneric(dst, g, x)
}
