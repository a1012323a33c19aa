//go:build !amd64

package nn

// Without an assembly body the Go loops in simd.go are the whole kernel.
const (
	useAVX2   = false
	useAVX512 = false
)

func panel(dst, a []float64, as int, b []float64, bc, k int) {
	panelGeneric(dst, a, as, b, bc, k)
}

func oneHotRow(dst, wt, w0, w1 []float64, c0, c1 float64) {
	oneHotRowGeneric(dst, wt, w0, w1, c0, c1)
}

// panel4 has only an assembly body; with useAVX512 constant false no caller
// reaches it.
func panel4(dst []float64, ds int, a []float64, as int, b []float64, bc, k, n int) {
	panic("nn: panel4 without an assembly body")
}

func rootScores(dst []float64, g *keyGroup, q, w, w0, w1 []float64, invScale float64) {
	rootScoresGeneric(dst, g, q, w, w0, w1, invScale)
}

func dotRows(dst []float64, ds int, a []float64, as int, b []float64, bc, rows, k, n int) {
	dotRowsGeneric(dst, ds, a, as, b, bc, rows, k, n)
}

func addTo(dst, src []float64) { addToGeneric(dst, src) }

func reluTo(dst, src []float64) { reluToGeneric(dst, src) }

func reluGrad(dst, g, x []float64) { reluGradGeneric(dst, g, x) }
