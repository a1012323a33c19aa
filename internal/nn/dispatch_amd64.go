//go:build !nn_avx2 && !nn_generic

package nn

// capAVX2 caps dispatch at the AVX2 bodies when set. Only a test build
// tagged nn_avx2 sets it (dispatch_avx2_amd64.go), so that `make
// test-dispatch` runs on an AVX-512 host every Go branch an AVX2-only host
// takes; a product build never names the tag.
const capAVX2 = false
