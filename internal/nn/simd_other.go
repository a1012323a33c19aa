//go:build !amd64

package nn

// Without an assembly body the Go loops in simd.go are the whole kernel.
const useAVX2 = false

func panel(dst, a []float64, as int, b []float64, bc, k int) {
	panelGeneric(dst, a, as, b, bc, k)
}

func oneHotRow(dst, wt, w0, w1 []float64, c0, c1 float64) {
	oneHotRowGeneric(dst, wt, w0, w1, c0, c1)
}
