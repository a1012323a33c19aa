package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelSizes straddles every block boundary of the assembly (4, 8, 16, 32
// columns) and the model's own shapes.
var kernelSizes = []int{0, 1, 3, 4, 5, 7, 8, 15, 16, 17, 64, 128, 129}

// sentinel surrounds every destination; a kernel that writes outside its
// row changes one.
var sentinel = math.Float64frombits(0x7ff8dead0badf00d)

var kernelSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, // denormals
	math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, 1e300, 1e-300, 0x1p-1022,
}

// fillMixed writes ordinary magnitudes interleaved with the IEEE-754 corner
// values, so sums overflow, cancel to ±0 and turn into NaN along the way.
func fillMixed(rng *rand.Rand, s []float64) {
	for i := range s {
		if rng.Intn(6) == 0 {
			s[i] = kernelSpecials[rng.Intn(len(kernelSpecials))]
		} else {
			s[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
}

// unaligned returns n mixed values whose first element sits off bytes·8
// past an allocation boundary, so 32-byte vector accesses are misaligned.
func unaligned(rng *rand.Rand, n, off int) []float64 {
	s := make([]float64, off+n)[off:]
	fillMixed(rng, s)
	return s
}

// poisoned returns a copy of init embedded in a sentinel-filled buffer, and
// the buffer.
func poisoned(init []float64, off int) (dst, buf []float64) {
	buf = make([]float64, off+len(init)+9)
	for i := range buf {
		buf[i] = sentinel
	}
	dst = buf[off : off+len(init) : off+len(init)]
	copy(dst, init)
	return dst, buf
}

func checkGuards(t *testing.T, what string, buf []float64, off, n int) {
	t.Helper()
	for i, v := range buf {
		if (i < off || i >= off+n) && math.Float64bits(v) != math.Float64bits(sentinel) {
			t.Fatalf("%s: wrote outside its destination at buffer index %d (dst is [%d,%d))", what, i, off, off+n)
		}
	}
}

// sameBits is math.Float64bits equality, except that any NaN matches any
// NaN: which operand's payload survives NaN+NaN depends on the instruction's
// operand order, which neither the compiler nor DESIGN §7 promises.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

func checkSame(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// comparePanel runs panel and panelGeneric on identical poisoned copies.
func comparePanel(t *testing.T, init, a []float64, as int, b []float64, bc, k, off int) {
	t.Helper()
	what := fmt.Sprintf("panel k=%d cols=%d as=%d bc=%d off=%d", k, len(init), as, bc, off)
	want, _ := poisoned(init, off)
	panelGeneric(want, a, as, b, bc, k)
	got, buf := poisoned(init, off)
	panel(got, a, as, b, bc, k)
	checkSame(t, what, got, want)
	checkGuards(t, what, buf, off, len(init))
}

func compareOneHotRow(t *testing.T, wt, w0, w1 []float64, c0, c1 float64, off int) {
	t.Helper()
	what := fmt.Sprintf("oneHotRow cols=%d off=%d", len(wt), off)
	init := make([]float64, len(wt))
	want, _ := poisoned(init, off)
	oneHotRowGeneric(want, wt, w0, w1, c0, c1)
	got, buf := poisoned(init, off)
	oneHotRow(got, wt, w0, w1, c0, c1)
	checkSame(t, what, got, want)
	checkGuards(t, what, buf, off, len(init))
}

// comparePanel4 runs panel4 and four panelGeneric calls on identical
// poisoned copies of a four-row destination of stride ds whose inter-row
// gaps hold sentinels too.
func comparePanel4(t *testing.T, rng *rand.Rand, ds int, a []float64, as int, b []float64, bc, k, n, off int) {
	t.Helper()
	what := fmt.Sprintf("panel4 k=%d cols=%d ds=%d as=%d bc=%d off=%d", k, n, ds, as, bc, off)
	init := make([]float64, 3*ds+n)
	for i := range init {
		init[i] = sentinel
	}
	for r := 0; r < 4; r++ {
		fillMixed(rng, init[r*ds:r*ds+n])
	}
	want, _ := poisoned(init, off)
	for r := 0; r < 4; r++ {
		panelGeneric(want[r*ds:r*ds+n], a[r*as:], 1, b, bc, k)
	}
	got, buf := poisoned(init, off)
	panel4(got, ds, a, as, b, bc, k, n)
	checkSame(t, what, got, want)
	for r := 0; r < 3; r++ {
		for i := r*ds + n; i < (r+1)*ds; i++ {
			if math.Float64bits(got[i]) != math.Float64bits(sentinel) {
				t.Fatalf("%s: wrote between rows %d and %d, at element %d", what, r, r+1, i)
			}
		}
	}
	checkGuards(t, what, buf, off, len(init))
}

// compareDotRows runs dotRows and dotRowsGeneric on identical poisoned
// copies of a rows-row destination of stride ds whose inter-row gaps hold
// sentinels too.
func compareDotRows(t *testing.T, rng *rand.Rand, ds int, a []float64, as int, b []float64, bc, rows, k, n, off int) {
	t.Helper()
	what := fmt.Sprintf("dotRows rows=%d k=%d n=%d ds=%d as=%d bc=%d off=%d", rows, k, n, ds, as, bc, off)
	init := make([]float64, (rows-1)*ds+n)
	for i := range init {
		init[i] = sentinel
	}
	for r := 0; r < rows; r++ {
		fillMixed(rng, init[r*ds:r*ds+n])
	}
	want, _ := poisoned(init, off)
	dotRowsGeneric(want, ds, a, as, b, bc, rows, k, n)
	got, buf := poisoned(init, off)
	dotRows(got, ds, a, as, b, bc, rows, k, n)
	checkSame(t, what, got, want)
	for r := 0; r < rows-1; r++ {
		for i := r*ds + n; i < (r+1)*ds; i++ {
			if math.Float64bits(got[i]) != math.Float64bits(sentinel) {
				t.Fatalf("%s: wrote between rows %d and %d, at element %d", what, r, r+1, i)
			}
		}
	}
	checkGuards(t, what, buf, off, len(init))
}

func compareAddTo(t *testing.T, init, src []float64, off int) {
	t.Helper()
	what := fmt.Sprintf("addTo len=%d off=%d", len(src), off)
	want, _ := poisoned(init, off)
	addToGeneric(want, src)
	got, buf := poisoned(init, off)
	addTo(got, src)
	checkSame(t, what, got, want)
	checkGuards(t, what, buf, off, len(init))
}

func compareReLU(t *testing.T, src, g, dinit []float64, off int) {
	t.Helper()
	what := fmt.Sprintf("reluTo len=%d off=%d", len(src), off)
	want, _ := poisoned(dinit, off)
	reluToGeneric(want, src)
	got, buf := poisoned(dinit, off)
	reluTo(got, src)
	checkSame(t, what, got, want)
	checkGuards(t, what, buf, off, len(src))

	what = fmt.Sprintf("reluGrad len=%d off=%d", len(src), off)
	want, _ = poisoned(dinit, off)
	reluGradGeneric(want, g, src)
	got, buf = poisoned(dinit, off)
	reluGrad(got, g, src)
	checkSame(t, what, got, want)
	checkGuards(t, what, buf, off, len(src))
}

// compareRootScores runs rootScores and rootScoresGeneric over the first
// lanes lanes of g on identical poisoned destinations.
func compareRootScores(t *testing.T, g *keyGroup, lanes int, q, w, w0, w1 []float64, invScale float64, off int) {
	t.Helper()
	what := fmt.Sprintf("rootScores d=%d lanes=%d off=%d", len(q), lanes, off)
	init := make([]float64, lanes)
	want, _ := poisoned(init, off)
	rootScoresGeneric(want, g, q, w, w0, w1, invScale)
	got, buf := poisoned(init, off)
	rootScores(got, g, q, w, w0, w1, invScale)
	checkSame(t, what, got, want)
	checkGuards(t, what, buf, off, lanes)
}

// TestKernelDispatch logs which bodies this CPU runs, so that a reader of a
// green run knows what it exercised.
func TestKernelDispatch(t *testing.T) {
	if useAVX2 {
		t.Log("panel, oneHotRow: AVX2 assembly")
		t.Log("dotRows (MatMulTransBInto, MatMulSpans' dA), output columns in fours: AVX2 assembly")
		t.Log("addTo (AddInPlace): AVX2 assembly")
		t.Log("reluTo, reluGrad (Tape.ReLU and its adjoint): AVX2 assembly")
	} else {
		t.Log("panel, oneHotRow, dotRows, addTo, reluTo, reluGrad: generic Go")
	}
	if useAVX512 {
		t.Log("MatMulInto, full blocks of 4 rows × 32 columns: panel4, AVX-512 assembly")
		t.Log("rootScores (OneHotRootSoftmaxInto), keys in eights, their rows of w transposed in registers eight columns at a time: AVX-512 assembly")
	} else {
		t.Log("MatMulInto: one panel call per row (no AVX-512F, or the OS does not save ZMM state)")
		t.Log("rootScores (OneHotRootSoftmaxInto): generic Go")
	}
}

// TestKernelsSIMDMatchGeneric pins the assembly to the Go bodies bit for
// bit, and the exported kernels built on them to the textbook loops, over
// every block-boundary shape, misaligned operands and IEEE corner values.
func TestKernelsSIMDMatchGeneric(t *testing.T) {
	t.Run("simd", func(t *testing.T) {
		if !useAVX2 {
			t.Skip("no AVX2: the generic bodies are the only kernels on this host")
		}
		rng := rand.New(rand.NewSource(15))
		for _, k := range kernelSizes {
			for _, cols := range kernelSizes {
				for _, as := range []int{1, 3} {
					for _, pad := range []int{0, 5} {
						bc, off := cols+pad, 1+2*rng.Intn(2)
						a := unaligned(rng, max(k-1, 0)*as+min(k, 1), off)
						b := unaligned(rng, max(k-1, 0)*bc+min(k, 1)*cols, 4-off)
						comparePanel(t, unaligned(rng, cols, 0), a, as, b, bc, k, off)
					}
				}
			}
		}
		for _, cols := range kernelSizes {
			for off := 0; off < 4; off++ {
				wt, w0, w1 := unaligned(rng, cols, off), unaligned(rng, cols+2, 1), unaligned(rng, cols, 3)
				c := unaligned(rng, 2, 0)
				compareOneHotRow(t, wt, w0, w1, c[0], c[1], off)
			}
		}
	})

	t.Run("dotRows", func(t *testing.T) {
		if !useAVX2 {
			t.Skip("no AVX2: the generic bodies are the only kernels on this host")
		}
		// Every row-block remainder (1–9 rows), every column count through
		// two tiles past 128, and k on both sides of the four-term step.
		rng := rand.New(rand.NewSource(23))
		for rows := 1; rows <= 9; rows++ {
			for n := 1; n <= 130; n++ {
				for _, k := range []int{0, 1, 3, 4, 37, 64, 128} {
					pad := rng.Intn(3)
					ds, as, bc, off := n+pad, k+2*pad, k+3-pad, 1+2*rng.Intn(2)
					a := unaligned(rng, (rows-1)*as+k, off)
					b := unaligned(rng, (n-1)*bc+k, 4-off)
					compareDotRows(t, rng, ds, a, as, b, bc, rows, k, n, off)
				}
			}
		}
		// A destination of exact zeros of either sign: a k = 0 product adds
		// +0 and must turn -0 into +0 exactly as the Go loop does.
		negZero := math.Copysign(0, -1)
		for _, k := range []int{0, 1, 5} {
			a, b := make([]float64, k), make([]float64, 8*k)
			init := []float64{0, negZero, 0, negZero, 1, negZero, 0, math.Inf(-1)}
			want, got := append([]float64(nil), init...), append([]float64(nil), init...)
			dotRowsGeneric(want, 0, a, 0, b, k, 1, k, 8)
			dotRows(got, 0, a, 0, b, k, 1, k, 8)
			checkSame(t, fmt.Sprintf("dotRows signed zeros k=%d", k), got, want)
		}
	})

	t.Run("addTo", func(t *testing.T) {
		if !useAVX2 {
			t.Skip("no AVX2: the generic bodies are the only kernels on this host")
		}
		rng := rand.New(rand.NewSource(24))
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				compareAddTo(t, unaligned(rng, n, 0), unaligned(rng, n, 3-off), off)
			}
		}
	})

	t.Run("relu", func(t *testing.T) {
		if !useAVX2 {
			t.Skip("no AVX2: the generic bodies are the only kernels on this host")
		}
		rng := rand.New(rand.NewSource(25))
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				compareReLU(t, unaligned(rng, n, 3-off), unaligned(rng, n, off), unaligned(rng, n, 0), off)
			}
		}
		// The corner values by name: a NaN or a zero of either sign is not
		// below zero and passes the forward as it is; it is not above zero
		// either, so the gradient under it — a -0 here — keeps its sign bit,
		// which adding a masked +0 would clear.
		negZero, nan := math.Copysign(0, -1), math.NaN()
		x := []float64{0, negZero, nan, -nan, math.Inf(-1), math.Inf(1), -1, 1, -math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, 0, negZero}
		out := make([]float64, len(x))
		reluTo(out, x)
		for i, want := range []float64{0, negZero, nan, -nan, 0, math.Inf(1), 0, 1, 0, math.SmallestNonzeroFloat64, 0, negZero} {
			if !sameBits(out[i], want) {
				t.Fatalf("reluTo(%v) = %v (%#x), want %v", x[i], out[i], math.Float64bits(out[i]), want)
			}
		}
		d := make([]float64, len(x))
		for i := range d {
			d[i] = negZero
		}
		g := []float64{1, 1, 1, 1, 1, 0, 1, negZero, 1, nan, nan, math.Inf(1)}
		reluGrad(d, g, x)
		for i, want := range []float64{negZero, negZero, negZero, negZero, negZero, 0, negZero, negZero, negZero, nan, negZero, negZero} {
			if !sameBits(d[i], want) {
				t.Fatalf("reluGrad under x=%v: -0 + %v = %v (%#x), want %v", x[i], g[i], d[i], math.Float64bits(d[i]), want)
			}
		}
	})

	t.Run("panel4", func(t *testing.T) {
		if !useAVX512 {
			t.Skip("no AVX-512F (or no OS support for ZMM state): MatMulInto runs panel row by row on this host")
		}
		rng := rand.New(rand.NewSource(22))
		for _, k := range []int{1, 37, 128} {
			for _, n := range []int{32, 64, 96, 128} {
				for _, pad := range []int{0, 5} {
					ds, as, bc, off := n+pad, k+2*pad, n+pad/5, 1+2*rng.Intn(2)
					a := unaligned(rng, 3*as+k, off)
					b := unaligned(rng, (k-1)*bc+n, 4-off)
					comparePanel4(t, rng, ds, a, as, b, bc, k, n, off)
				}
			}
		}
		// MatMulInto around the block shape: row remainders 0..3 after one
		// and two blocks, column tails on both sides of 32, and k = 0.
		for rows := 4; rows <= 9; rows++ {
			for _, k := range []int{0, 1, 37, 128} {
				for _, cols := range []int{31, 32, 33, 63, 64, 65, 128, 129} {
					what := fmt.Sprintf("MatMulInto %d×%d×%d", rows, k, cols)
					a, b := unaligned(rng, rows*k, 1), unaligned(rng, k*cols, 3)
					init := unaligned(rng, rows*cols, 0)
					want, _ := poisoned(init, 1)
					for i := 0; i < rows; i++ {
						panelGeneric(want[i*cols:(i+1)*cols], a[i*k:], 1, b, cols, k)
					}
					got, buf := poisoned(init, 1)
					MatMulInto(&Matrix{Rows: rows, Cols: cols, Data: got}, &Matrix{Rows: rows, Cols: k, Data: a}, &Matrix{Rows: k, Cols: cols, Data: b})
					checkSame(t, what, got, want)
					checkGuards(t, what, buf, 1, len(init))
				}
			}
		}
	})

	t.Run("rootScores", func(t *testing.T) {
		if !useAVX512 {
			t.Skip("no AVX-512F (or no OS support for ZMM state): rootScores runs its Go body on this host")
		}
		rng := rand.New(rand.NewSource(34))
		for _, d := range kernelSizes[1:] {
			for lanes := 1; lanes <= 8; lanes++ {
				const rows = 7
				var g keyGroup
				for l := 0; l < lanes; l++ {
					g.off[l] = rng.Intn(rows) * d
				}
				cs := unaligned(rng, 16, 0)
				copy(g.c0[:lanes], cs[:lanes])
				copy(g.c1[:lanes], cs[8:8+lanes])
				off := 1 + 2*rng.Intn(2)
				w := unaligned(rng, rows*d, off)
				compareRootScores(t, &g, lanes, unaligned(rng, d, 4-off), w, unaligned(rng, d, 1), unaligned(rng, d, 3), unaligned(rng, 1, 0)[0], off)
			}
		}
	})

	// The exported kernels against the simple loops DESIGN §7 defines them
	// by; runs on every host, through whichever path the host dispatches to.
	mat := func(rng *rand.Rand, rows, cols int) (*Matrix, []float64) {
		off := 1 + 2*rng.Intn(2)
		data, buf := poisoned(unaligned(rng, rows*cols, 0), off)
		return &Matrix{Rows: rows, Cols: cols, Data: data}, buf
	}
	guards := func(t *testing.T, what string, m *Matrix, buf []float64) {
		t.Helper()
		checkGuards(t, what, buf, len(buf)-len(m.Data)-9, len(m.Data))
	}
	t.Run("exported", func(t *testing.T) {
		rng := rand.New(rand.NewSource(16))
		for _, rows := range kernelSizes {
			for _, k := range kernelSizes {
				for _, cols := range kernelSizes {
					what := fmt.Sprintf("%d×%d×%d", rows, k, cols)
					a, _ := mat(rng, rows, k)
					at, _ := mat(rng, k, rows)
					b, _ := mat(rng, k, cols)
					dst, buf := mat(rng, rows, cols)
					init := append([]float64(nil), dst.Data...)

					want := append([]float64(nil), init...)
					for i := 0; i < rows; i++ {
						for x := 0; x < k; x++ {
							for j := 0; j < cols; j++ {
								want[i*cols+j] += a.Data[i*k+x] * b.Data[x*cols+j]
							}
						}
					}
					MatMulInto(dst, a, b)
					checkSame(t, "MatMulInto "+what, dst.Data, want)
					guards(t, "MatMulInto "+what, dst, buf)

					copy(want, init)
					for i := 0; i < rows; i++ {
						for x := 0; x < k; x++ {
							for j := 0; j < cols; j++ {
								want[i*cols+j] += at.Data[x*rows+i] * b.Data[x*cols+j]
							}
						}
					}
					copy(dst.Data, init)
					MatMulTransAInto(dst, at, b)
					checkSame(t, "MatMulTransAInto "+what, dst.Data, want)
					guards(t, "MatMulTransAInto "+what, dst, buf)

					bt, _ := mat(rng, cols, k)
					copy(want, init)
					for i := 0; i < rows; i++ {
						for j := 0; j < cols; j++ {
							var dot float64
							for x := 0; x < k; x++ {
								dot += a.Data[i*k+x] * bt.Data[j*k+x]
							}
							want[i*cols+j] += dot
						}
					}
					copy(dst.Data, init)
					MatMulTransBInto(dst, a, bt)
					checkSame(t, "MatMulTransBInto "+what, dst.Data, want)
					guards(t, "MatMulTransBInto "+what, dst, buf)

					src, _ := mat(rng, rows, cols)
					for i := range want {
						want[i] = init[i] + src.Data[i]
					}
					copy(dst.Data, init)
					AddInPlace(dst, src)
					checkSame(t, "AddInPlace "+what, dst.Data, want)
					guards(t, "AddInPlace "+what, dst, buf)

					if k == 0 {
						continue // a span needs at least one column
					}
					// Spans touching the first column, the last, both, and
					// random interiors.
					spans := make([]Span, rows)
					for i := range spans {
						switch lo, hi := rng.Intn(k), 1+rng.Intn(k); i % 4 {
						case 0:
							spans[i] = Span{0, int32(k)}
						case 1:
							spans[i] = Span{0, int32(hi)}
						case 2:
							spans[i] = Span{int32(lo), int32(k)}
						default:
							spans[i] = Span{int32(min(lo, hi-1)), int32(hi)}
						}
					}
					copy(want, init)
					for i := 0; i < rows; i++ {
						for x := int(spans[i].Lo); x < int(spans[i].Hi); x++ {
							for j := 0; j < cols; j++ {
								want[i*cols+j] += a.Data[i*k+x] * b.Data[x*cols+j]
							}
						}
					}
					copy(dst.Data, init)
					MatMulSpansInto(dst, a, b, spans)
					checkSame(t, "MatMulSpansInto "+what, dst.Data, want)
					guards(t, "MatMulSpansInto "+what, dst, buf)
				}
			}
		}
		for _, rows := range kernelSizes {
			for _, cols := range kernelSizes {
				const hot = 5
				what := fmt.Sprintf("ProjectOneHotInto %d×%d", rows, cols)
				x, _ := mat(rng, rows, hot+2)
				w, _ := mat(rng, hot+2, cols)
				dst, buf := mat(rng, rows, cols)
				types := make([]int, rows)
				want := make([]float64, rows*cols)
				for i := range types {
					types[i] = rng.Intn(hot)
					for j := 0; j < cols; j++ {
						s := w.Data[types[i]*cols+j]
						s += x.Data[i*x.Cols+hot] * w.Data[hot*cols+j]
						s += x.Data[i*x.Cols+hot+1] * w.Data[(hot+1)*cols+j]
						want[i*cols+j] = s
					}
				}
				ProjectOneHotInto(dst, x, w, types, hot)
				checkSame(t, what, dst.Data, want)
				guards(t, what, dst, buf)
			}
		}
	})
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected a panic", what)
		}
	}()
	f()
}

// TestKernelBoundsPanicInGo: the assembly checks nothing, so a bad node
// type or an operand too short for the shape must die on a Go slice bound
// in the wrapper, never reach a kernel as an address.
func TestKernelBoundsPanicInGo(t *testing.T) {
	for _, ty := range []int{-1, 7, 1 << 40} {
		mustPanic(t, fmt.Sprintf("ProjectOneHotInto type %d", ty), func() {
			ProjectOneHotInto(NewMatrix(1, 8), NewMatrix(1, 7), NewMatrix(7, 8), []int{ty}, 5)
		})
	}
	dst := make([]float64, 8)
	mustPanic(t, "panel short a", func() { panel(dst, make([]float64, 3), 1, make([]float64, 32), 8, 4) })
	mustPanic(t, "panel short b", func() { panel(dst, make([]float64, 4), 1, make([]float64, 31), 8, 4) })
	mustPanic(t, "panel short strided a", func() { panel(dst, make([]float64, 9), 3, make([]float64, 32), 8, 4) })
	// dotRows, 5 rows × 8 columns, k = 4: dst needs 40 elements, a 20, b 32.
	full := func(n int) []float64 { return make([]float64, n) }
	mustPanic(t, "dotRows short dst", func() { dotRows(full(39), 8, full(20), 4, full(32), 4, 5, 4, 8) })
	mustPanic(t, "dotRows short strided dst", func() { dotRows(full(40), 9, full(20), 4, full(32), 4, 5, 4, 8) })
	mustPanic(t, "dotRows short a", func() { dotRows(full(40), 8, full(19), 4, full(32), 4, 5, 4, 8) })
	mustPanic(t, "dotRows short b", func() { dotRows(full(40), 8, full(20), 4, full(31), 4, 5, 4, 8) })
	mustPanic(t, "dotRows short strided b", func() { dotRows(full(40), 8, full(20), 4, full(32), 5, 5, 4, 8) })
	mustPanic(t, "dotRows negative stride", func() { dotRows(full(40), 8, full(20), -4, full(32), 4, 5, 4, 8) })
	mustPanic(t, "addTo short dst", func() { addTo(full(7), full(8)) })
	mustPanic(t, "reluTo short dst", func() { reluTo(full(7), full(8)) })
	mustPanic(t, "reluGrad short g", func() { reluGrad(full(8), full(7), full(8)) })
	mustPanic(t, "reluGrad short x", func() { reluGrad(full(8), full(8), full(7)) })
	for _, ty := range []int{-1, 7, 1 << 40} {
		mustPanic(t, fmt.Sprintf("OneHotRootSoftmaxInto type %d", ty), func() {
			OneHotRootSoftmaxInto(NewMatrix(1, 9), NewMatrix(1, 8), NewMatrix(9, 7), NewMatrix(7, 8), []int{0, 1, 2, 3, 4, 0, 1, 2, ty}, 5, 1)
		})
	}
	var g keyGroup
	mustPanic(t, "rootScores short w", func() { rootScores(full(8), &g, full(8), full(7), full(8), full(8), 1) })
	mustPanic(t, "rootScores short w0", func() { rootScores(full(8), &g, full(8), full(8), full(7), full(8), 1) })
	mustPanic(t, "rootScores short w1", func() { rootScores(full(8), &g, full(8), full(8), full(8), full(7), 1) })
	mustPanic(t, "MatMulTransBInto short b", func() {
		MatMulTransBInto(NewMatrix(5, 8), NewMatrix(5, 4), &Matrix{Rows: 8, Cols: 4, Data: full(31)})
	})
	if !useAVX512 {
		return
	}
	// 4 rows × 32 columns, k = 4: dst and b need 128 elements, a needs 16.
	mustPanic(t, "panel4 short dst", func() { panel4(full(127), 32, full(16), 4, full(128), 32, 4, 32) })
	mustPanic(t, "panel4 short strided dst", func() { panel4(full(128), 33, full(16), 4, full(128), 32, 4, 32) })
	mustPanic(t, "panel4 short a", func() { panel4(full(128), 32, full(15), 4, full(128), 32, 4, 32) })
	mustPanic(t, "panel4 short b", func() { panel4(full(128), 32, full(16), 4, full(127), 32, 4, 32) })
	mustPanic(t, "panel4 negative stride", func() { panel4(full(128), 32, full(16), -4, full(128), 32, 4, 32) })
	mustPanic(t, "panel4 k = 0", func() { panel4(full(128), 32, full(16), 4, full(128), 32, 0, 32) })
	mustPanic(t, "panel4 ragged columns", func() { panel4(full(128), 32, full(16), 4, full(128), 32, 4, 24) })
}

// FuzzKernelsMatchGeneric feeds the primitives arbitrary bit patterns —
// signalling NaNs and denormals included — at fuzzer-chosen shapes, strides
// and misalignments.
func FuzzKernelsMatchGeneric(f *testing.F) {
	if !useAVX2 {
		f.Skip("no AVX2: the generic bodies are the only kernels on this host")
	}
	f.Add([]byte("lanes run across the output column"), uint8(128), uint8(128), uint8(1), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0x80}, uint8(5), uint8(39), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, k8, cols8, as8, off8 uint8) {
		k, cols, as, off := int(k8)%130, int(cols8)%130, 1+int(as8)%4, int(off8)%4
		pos := 0
		next := func(n int) []float64 {
			s := make([]float64, off+n)[off:]
			for i := range s {
				var w [8]byte
				for j := range w {
					if len(data) > 0 {
						w[j] = data[pos%len(data)]
						pos++
					}
				}
				s[i] = math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
			}
			return s
		}
		bc := cols + int(as8)%3
		a := next(max(k-1, 0)*as + min(k, 1))
		b := next(max(k-1, 0)*bc + min(k, 1)*cols)
		comparePanel(t, next(cols), a, as, b, bc, k, off)
		c := next(2)
		compareOneHotRow(t, next(cols), next(cols), next(cols), c[0], c[1], off)
		compareAddTo(t, next(cols), next(cols), off)
		compareReLU(t, next(cols), next(cols), next(cols), off)
		if cols > 0 {
			// dotRows' destination comes from a seeded generator, like
			// panel4's below: the fuzzer's bits go into a and b.
			rows, ds, ars, brs := 1+int(off8)%9, cols+int(as8)%3, k+int(off8)%3, k+int(as8)%2
			compareDotRows(t, rand.New(rand.NewSource(int64(k8)<<8|int64(cols8))), ds, next((rows-1)*ars+k), ars, next((cols-1)*brs+k), brs, rows, k, cols, off)
		}
		if k > 0 {
			// rootScores: up to eight keys, each at a fuzzer-chosen row of
			// a small w, every operand from the fuzzer's bits.
			const rows = 5
			var g keyGroup
			lanes := 1 + cols%8
			for l, v := range next(lanes) {
				g.off[l] = int(math.Float64bits(v)%rows) * k
			}
			cs := next(16)
			copy(g.c0[:lanes], cs[:lanes])
			copy(g.c1[:lanes], cs[8:8+lanes])
			compareRootScores(t, &g, lanes, next(k), next(rows*k), next(k), next(k), next(1)[0], off)
		}
		if useAVX512 && k > 0 {
			n := 32 * (1 + cols%4)
			ds, ars, bc := n+int(as8)%3, k+int(off8)%3, n+int(as8)%2
			// panel4's destination comes from a seeded generator: the
			// fuzzer's bits go where the arithmetic reads them, a and b.
			comparePanel4(t, rand.New(rand.NewSource(int64(k8)<<8|int64(cols8))), ds, next(3*ars+k), ars, next((k-1)*bc+n), bc, k, n, off)
		}
	})
}

// BenchmarkKernels times the primitives, Go body against assembly, on the
// shapes one forward pass runs: the MLP layers for one root row and for a
// ten-node plan, the LoRA down/up projections at the default ranks, the
// Q/K/V one-hot projection, the tree-span probabilities·V product and the
// root row's scores.
func BenchmarkKernels(b *testing.B) {
	type impl struct {
		name      string
		panel     func(dst, a []float64, as int, b []float64, bc, k int)
		oneHotRow func(dst, wt, w0, w1 []float64, c0, c1 float64)
	}
	impls := []impl{{"generic", panelGeneric, oneHotRowGeneric}}
	if useAVX2 {
		impls = append(impls, impl{"avx2", panel, oneHotRow})
	}
	rng := rand.New(rand.NewSource(1))
	dense := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		return s
	}
	run := func(name string, flops int, body func(im impl)) {
		for _, im := range impls {
			b.Run(name+"/"+im.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					body(im)
				}
				b.ReportMetric(float64(flops)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "flop/ns")
			})
		}
	}
	for _, s := range []struct{ rows, k, cols int }{
		{1, 128, 128}, {10, 128, 128}, {10, 128, 64},
		{10, 128, 32}, {10, 32, 128}, {10, 128, 16}, {10, 16, 64}, {10, 64, 8}, {10, 8, 1},
	} {
		a, w, dst := dense(s.rows*s.k), dense(s.k*s.cols), make([]float64, s.rows*s.cols)
		run(fmt.Sprintf("MatMulInto/%dx%dx%d", s.rows, s.k, s.cols), 2*s.rows*s.k*s.cols, func(im impl) {
			for i := 0; i < s.rows; i++ {
				im.panel(dst[i*s.cols:(i+1)*s.cols], a[i*s.k:(i+1)*s.k], 1, w, s.cols, s.k)
			}
		})
	}
	// The same product through the exported entry point, which is where
	// full blocks of four rows reach panel4 on a CPU that has it.
	for _, s := range []struct{ rows, k, cols int }{{10, 128, 128}, {10, 128, 64}, {5, 128, 128}, {1, 128, 128}} {
		a, w, dst := NewMatrix(s.rows, s.k), NewMatrix(s.k, s.cols), NewMatrix(s.rows, s.cols)
		copy(a.Data, dense(len(a.Data)))
		copy(w.Data, dense(len(w.Data)))
		b.Run(fmt.Sprintf("MatMulInto/%dx%dx%d/dispatched", s.rows, s.k, s.cols), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, a, w)
			}
			b.ReportMetric(float64(2*s.rows*s.k*s.cols)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "flop/ns")
		})
	}
	// The a·bᵀ product under MatMul's dA adjoint, and the accumulate under
	// every adjoint and the shard reduction; SetBytes counts each operand
	// and the destination once.
	for _, rows := range []int{3, 10, 32} {
		const k, n = 128, 128
		a, w, dst := dense(rows*k), dense(n*k), make([]float64, rows*n)
		for _, im := range []struct {
			name string
			body func(dst []float64, ds int, a []float64, as int, b []float64, bc, rows, k, n int)
		}{{"generic", dotRowsGeneric}, {"dispatched", dotRows}} {
			b.Run(fmt.Sprintf("MatMulTransBInto/%dx%dx%d/%s", rows, k, n, im.name), func(b *testing.B) {
				b.SetBytes(int64(8 * (rows*k + n*k + rows*n)))
				for i := 0; i < b.N; i++ {
					im.body(dst, n, a, k, w, k, rows, k, n)
				}
				b.ReportMetric(float64(2*rows*k*n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "flop/ns")
			})
		}
	}
	for _, im := range []struct {
		name string
		body func(dst, src []float64)
	}{{"generic", addToGeneric}, {"dispatched", addTo}} {
		const n = 16384
		dst, src := make([]float64, n), dense(n)
		b.Run(fmt.Sprintf("AddInPlace/%d/%s", n, im.name), func(b *testing.B) {
			b.SetBytes(3 * 8 * n) // two loads and a store per element
			for i := 0; i < b.N; i++ {
				im.body(dst, src)
			}
		})
	}
	// The root row's scores against n one-hot keys at the default DK, as the
	// optimizer's candidate scorer runs them once per miss: six flops per
	// key element (forming it, then the dot).
	for _, n := range []int{3, 8, 13, 31} {
		const hot, d = 16, 128
		w, q := dense((hot+2)*d), dense(d)
		groups := make([]keyGroup, (n+7)/8)
		for j := 0; j < n; j++ {
			g := &groups[j/8]
			g.off[j%8] = rng.Intn(hot) * d
			g.c0[j%8], g.c1[j%8] = rng.NormFloat64(), rng.NormFloat64()
		}
		dst := make([]float64, n)
		for _, im := range []struct {
			name string
			body func(dst []float64, g *keyGroup, q, w, w0, w1 []float64, invScale float64)
		}{{"generic", rootScoresGeneric}, {"dispatched", rootScores}} {
			b.Run(fmt.Sprintf("rootScores/%d/%s", n, im.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for gi := range groups {
						im.body(dst[gi*8:min(gi*8+8, n)], &groups[gi], q, w, w[hot*d:], w[(hot+1)*d:], 0.125)
					}
				}
				b.ReportMetric(float64(6*n*d)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "flop/ns")
			})
		}
	}
	// The rest of a training step: aᵀ·b under MatMul's dW adjoint (a plan's
	// rows are the summed axis; one strided panel call per output row), the
	// two halves of ReLU, and Adam's update (a Go loop; its row is a baseline).
	for _, rows := range []int{3, 10, 32} {
		const in, out = 128, 128
		a, dy, dst := NewMatrix(rows, in), NewMatrix(rows, out), NewMatrix(in, out)
		copy(a.Data, dense(len(a.Data)))
		copy(dy.Data, dense(len(dy.Data)))
		for _, im := range []struct {
			name string
			body func()
		}{
			{"generic", func() {
				for i := 0; i < in; i++ {
					panelGeneric(dst.Data[i*out:(i+1)*out], a.Data[i:], in, dy.Data, out, rows)
				}
			}},
			{"dispatched", func() { MatMulTransAInto(dst, a, dy) }},
		} {
			b.Run(fmt.Sprintf("MatMulTransAInto/%dx%dx%d/%s", rows, in, out, im.name), func(b *testing.B) {
				b.SetBytes(int64(8 * (rows*in + rows*out + 2*in*out))) // dst is read and written
				for i := 0; i < b.N; i++ {
					im.body()
				}
				b.ReportMetric(float64(2*rows*in*out)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "flop/ns")
			})
		}
	}
	{
		const n = 16384
		x, g, d := dense(n), dense(n), make([]float64, n)
		for _, im := range []struct {
			name string
			to   func(dst, src []float64)
			grad func(dst, g, x []float64)
		}{{"generic", reluToGeneric, reluGradGeneric}, {"dispatched", reluTo, reluGrad}} {
			b.Run(fmt.Sprintf("ReLU/%d/%s", n, im.name), func(b *testing.B) {
				b.SetBytes((2 + 4) * 8 * n) // forward: load, store; backward: three loads, a store
				for i := 0; i < b.N; i++ {
					im.to(d, x)
					im.grad(d, g, x)
				}
			})
		}
		p := NewParam("p", 1, n)
		copy(p.Value.Data, dense(n))
		opt := NewAdam([]*Param{p}, 1.5e-3)
		b.Run(fmt.Sprintf("AdamStep/%d", n), func(b *testing.B) {
			b.SetBytes(7 * 8 * n) // the update's four loads and three stores
			for i := 0; i < b.N; i++ {
				copy(p.Grad.Data, g) // Step clears the gradient
				opt.Step()
			}
		})
	}
	const rows, cols, hot = 10, 128, 5
	x, w, dst := dense(rows*(hot+2)), dense((hot+2)*cols), make([]float64, rows*cols)
	run("ProjectOneHotInto/10x128", 4*rows*cols, func(im impl) {
		for i := 0; i < rows; i++ {
			ty := i % hot
			im.oneHotRow(dst[i*cols:(i+1)*cols], w[ty*cols:(ty+1)*cols], w[hot*cols:(hot+1)*cols], w[(hot+1)*cols:], x[i*(hot+2)+hot], x[i*(hot+2)+hot+1])
		}
	})
	// Pre-order spans of a left-deep ten-node tree: row i attends to [i, 10).
	probs, v := dense(rows*rows), dense(rows*cols)
	run("MatMulSpansInto/10-row-tree", 2*cols*rows*(rows+1)/2, func(im impl) {
		for i := 0; i < rows; i++ {
			im.panel(dst[i*cols:(i+1)*cols], probs[i*rows+i:(i+1)*rows], 1, v[i*cols:], cols, rows-i)
		}
	})
}
