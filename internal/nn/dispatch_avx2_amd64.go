//go:build nn_avx2 && !nn_generic

package nn

// capAVX2: see dispatch_amd64.go.
const capAVX2 = true
