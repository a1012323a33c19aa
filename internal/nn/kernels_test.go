package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// magnitude draws a value of random sign whose magnitude is log-uniform in
// [1e-3, 1e3].
func magnitude(rng *rand.Rand) float64 {
	v := math.Pow(10, -3+6*rng.Float64())
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// textbookScores is the score loop of one attention row written out: each
// key's dot with q summed from +0 in ascending feature order, then scaled.
func textbookScores(q []float64, keys [][]float64, invScale float64) []float64 {
	out := make([]float64, len(keys))
	for j, k := range keys {
		var s float64
		for c := range q {
			s += q[c] * k[c]
		}
		out[j] = s * invScale
	}
	return out
}

// textbookSoftmax finishes textbookScores into probabilities: the max
// scanned in ascending key order from -Inf, the shifted exps summed in the
// same order, then one division each.
func textbookSoftmax(scores []float64) []float64 {
	max := math.Inf(-1)
	for _, s := range scores {
		if s > max {
			max = s
		}
	}
	out := make([]float64, len(scores))
	var z float64
	for j, s := range scores {
		out[j] = math.Exp(s - max)
		z += out[j]
	}
	for j := range out {
		out[j] /= z
	}
	return out
}

// TestMaskedSoftmaxMatchesTextbook pins MaskedSoftmaxQKTInto to the
// textbook loop bit for bit: spans of 1 to 40 keys run the four-key body
// and every one-to-three-key tail, each span at a random offset in a wider
// row whose masked positions must stay exact zeros.
func TestMaskedSoftmaxMatchesTextbook(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, d := range []int{1, 5, 32, 128} {
		for span := 1; span <= 40; span++ {
			lo := rng.Intn(4)
			cols := lo + span + rng.Intn(3)
			q, k := NewMatrix(1, d), NewMatrix(cols, d)
			for i := range q.Data {
				q.Data[i] = magnitude(rng)
			}
			for i := range k.Data {
				k.Data[i] = magnitude(rng)
			}
			keys := make([][]float64, span)
			for j := range keys {
				keys[j] = k.Data[(lo+j)*d : (lo+j+1)*d]
			}
			invScale := 1 / math.Sqrt(float64(d))
			want := textbookSoftmax(textbookScores(q.Data, keys, invScale))
			dst := NewMatrix(1, cols)
			MaskedSoftmaxQKTInto(dst, q, k, invScale, []Span{{int32(lo), int32(lo + span)}})
			what := fmt.Sprintf("MaskedSoftmaxQKTInto d=%d span=[%d,%d) of %d", d, lo, lo+span, cols)
			for j, v := range dst.Data {
				if j < lo || j >= lo+span {
					if math.Float64bits(v) != 0 {
						t.Fatalf("%s: masked position %d = %v", what, j, v)
					}
				} else if math.Float64bits(v) != math.Float64bits(want[j-lo]) {
					t.Fatalf("%s: probability %d = %v (%#x), textbook %v (%#x)", what, j, v, math.Float64bits(v), want[j-lo], math.Float64bits(want[j-lo]))
				}
			}
		}
	}
}

// oneHotKeys builds n keys in ProjectOneHotInto's layout — a one-hot block
// of hot columns and two dense trailing ones — and returns x, types, w and
// each key written out as oneHotRow forms it.
func oneHotKeys(rng *rand.Rand, n, hot, d int) (x, w *Matrix, types []int, keys [][]float64) {
	x, w = NewMatrix(n, hot+2), NewMatrix(hot+2, d)
	for i := range w.Data {
		w.Data[i] = magnitude(rng)
	}
	types = make([]int, n)
	keys = make([][]float64, n)
	for j := range types {
		types[j] = rng.Intn(hot)
		c0, c1 := magnitude(rng), magnitude(rng)
		x.Set(j, types[j], 1)
		x.Set(j, hot, c0)
		x.Set(j, hot+1, c1)
		keys[j] = make([]float64, d)
		for c := range keys[j] {
			k := w.Data[types[j]*d+c]
			k += c0 * w.Data[hot*d+c]
			k += c1 * w.Data[(hot+1)*d+c]
			keys[j][c] = k
		}
	}
	return x, w, types, keys
}

// TestOneHotRootSoftmaxMatchesTextbook pins the root-row path to the same
// loop: 1 to 40 keys run whole groups of eight and every tail of one to
// seven lanes, through whichever rootScores body this host dispatches to
// and through the Go body, and the probabilities equal the textbook ones
// over the keys ProjectOneHotInto would have built.
func TestOneHotRootSoftmaxMatchesTextbook(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const hot = 5
	for _, d := range []int{1, 5, 32, 128} {
		for n := 1; n <= 40; n++ {
			x, w, types, keys := oneHotKeys(rng, n, hot, d)
			q := NewMatrix(1, d)
			for i := range q.Data {
				q.Data[i] = magnitude(rng)
			}
			invScale := 1 / math.Sqrt(float64(d))
			scores := textbookScores(q.Data, keys, invScale)
			what := fmt.Sprintf("d=%d n=%d", d, n)
			w0, w1 := w.Data[hot*d:], w.Data[(hot+1)*d:]
			for j0 := 0; j0 < n; j0 += 8 {
				var g keyGroup
				lanes := min(8, n-j0)
				for l := 0; l < lanes; l++ {
					g.off[l] = types[j0+l] * d
					g.c0[l], g.c1[l] = x.At(j0+l, hot), x.At(j0+l, hot+1)
				}
				got, gen := make([]float64, lanes), make([]float64, lanes)
				rootScores(got, &g, q.Data, w.Data, w0, w1, invScale)
				rootScoresGeneric(gen, &g, q.Data, w.Data, w0, w1, invScale)
				checkSame(t, fmt.Sprintf("rootScores %s keys [%d,%d)", what, j0, j0+lanes), got, scores[j0:j0+lanes])
				checkSame(t, fmt.Sprintf("rootScoresGeneric %s keys [%d,%d)", what, j0, j0+lanes), gen, scores[j0:j0+lanes])
			}
			dst := NewMatrix(1, n)
			OneHotRootSoftmaxInto(dst, q, x, w, types, hot, invScale)
			checkSame(t, "OneHotRootSoftmaxInto "+what, dst.Data, textbookSoftmax(scores))

			k, ref := NewMatrix(n, d), NewMatrix(1, n)
			ProjectOneHotInto(k, x, w, types, hot)
			MaskedSoftmaxQKTInto(ref, q, k, invScale, []Span{{0, int32(n)}})
			checkSame(t, "OneHotRootSoftmaxInto vs ProjectOneHotInto+MaskedSoftmaxQKTInto "+what, dst.Data, ref.Data)
		}
	}
}
