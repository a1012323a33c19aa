package loadgen

import (
	"math"
	"sort"

	"dace/internal/telemetry"
)

// Summary describes one sample set. All quantile fields share the unit of
// the inputs.
type Summary struct {
	N              int
	Mean           float64
	Min            float64
	Max            float64
	P50, P99, P999 float64
	Std            float64
	CV             float64 // Std/Mean; dispersion, unitless
}

// Summarize computes a Summary over xs (unsorted; a copy is sorted). An
// empty input returns the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum, sq float64
	for _, v := range s {
		sum += v
	}
	mean := sum / float64(len(s))
	for _, v := range s {
		sq += (v - mean) * (v - mean)
	}
	std := 0.0
	if len(s) > 1 {
		std = math.Sqrt(sq / float64(len(s)-1))
	}
	cv := 0.0
	if mean != 0 {
		cv = std / mean
	}
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1))] }
	return Summary{
		N: len(s), Mean: mean, Min: s[0], Max: s[len(s)-1],
		P50: q(0.50), P99: q(0.99), P999: q(0.999),
		Std: std, CV: cv,
	}
}

// SummarizeSnapshot extracts a Summary from a latency histogram snapshot
// (quantiles carry the histogram's ±9% bucket error; Min/Max/Std are not
// recoverable from buckets and are left zero). Values are converted from
// the histogram's seconds to milliseconds.
func SummarizeSnapshot(h telemetry.HistogramSnapshot) Summary {
	const ms = 1e3
	if h.Count == 0 {
		return Summary{}
	}
	return Summary{
		N:    int(h.Count),
		Mean: h.Mean() * ms,
		P50:  h.Quantile(0.50) * ms,
		P99:  h.Quantile(0.99) * ms,
		P999: h.Quantile(0.999) * ms,
	}
}
