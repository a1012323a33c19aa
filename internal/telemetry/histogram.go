package telemetry

import (
	"math"
	"math/rand/v2"
	"sync/atomic"
)

// The histogram bucket layout is fixed and shared by every Histogram: a
// log-linear grid of 4 sub-buckets per power of two, covering 2^-30
// (~0.93ns when observing seconds) through 2^14 (~4.5h), plus an underflow
// bucket (zero, negatives, NaN, subnormals) and an overflow bucket. The
// relative width of one bucket is 2^(1/4) ≈ 19%, so extracted quantiles
// carry at most ~±9% relative error — plenty for latency percentiles —
// while the whole layout is 178 words per shard.
//
// A fixed layout is what makes snapshots mergeable: any two histograms
// (or two snapshots of one histogram taken on different days) add
// bucket-by-bucket, which the load generator's windowed statistics and the
// Prometheus encoder both rely on.
const (
	histSubBits = 2
	histSub     = 1 << histSubBits // sub-buckets per octave
	histMinExp  = -30
	histMaxExp  = 14
	histFinite  = (histMaxExp - histMinExp) * histSub
	// HistBuckets is the total bucket count: underflow + finite + overflow.
	HistBuckets = histFinite + 2
	// histShards spreads concurrent Observe calls across independent count
	// arrays so two cores recording the same latency don't serialize on one
	// cache line. Merged only at snapshot time.
	histShards = 4
)

// histMin/histMax bound the finite bucket range.
var (
	histMin = math.Ldexp(1, histMinExp)
	histMax = math.Ldexp(1, histMaxExp)
)

// histShard is one independent copy of the bucket counts. The trailing pad
// keeps a shard's sum word and the next shard's first buckets off a shared
// cache line.
type histShard struct {
	counts  [HistBuckets]atomic.Uint64
	sumBits atomic.Uint64
	_       [56]byte
}

// Histogram is a lock-free sharded log-scale histogram. The zero value is
// ready to use; create through Registry.Histogram to appear in the
// exposition. Observe is safe for any number of concurrent callers and
// never allocates.
type Histogram struct {
	shards [histShards]histShard
}

// bucketOf maps a value to its bucket index. The comparison is written so
// NaN (for which v >= histMin is false) lands in the underflow bucket.
func bucketOf(v float64) int {
	if !(v >= histMin) {
		return 0
	}
	if v >= histMax {
		return HistBuckets - 1
	}
	bits := math.Float64bits(v)
	exp := int(bits>>52) - 1023 // v is normal: histMin is far above subnormals
	sub := int(bits>>(52-histSubBits)) & (histSub - 1)
	return 1 + (exp-histMinExp)<<histSubBits + sub
}

// BucketUpper returns the exclusive upper bound of bucket i: 0 has no lower
// range (returns the smallest finite bound), the last returns +Inf.
func BucketUpper(i int) float64 {
	switch {
	case i <= 0:
		return histMin
	case i >= HistBuckets-1:
		return math.Inf(1)
	}
	j := i - 1
	oct := j>>histSubBits + histMinExp
	sub := j & (histSub - 1)
	return math.Ldexp(1+float64(sub+1)/histSub, oct)
}

// Observe records one value. One branch-free bucket computation, one
// per-shard atomic add for the count, and one CAS for the sum; the shard is
// chosen by the runtime's per-thread fast RNG so concurrent observers
// spread out instead of serializing.
func (h *Histogram) Observe(v float64) {
	s := &h.shards[rand.Uint64()&(histShards-1)]
	s.counts[bucketOf(v)].Add(1)
	if v == v && !math.IsInf(v, 0) { // NaN/±Inf are counted but excluded from the sum
		for {
			old := s.sumBits.Load()
			if s.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
				break
			}
		}
	}
}

// HistogramSnapshot is a merged, point-in-time copy of a histogram's
// buckets. Snapshots from different histograms (with the layout being
// process-wide, that is all of them) merge bucket-by-bucket.
type HistogramSnapshot struct {
	Counts [HistBuckets]uint64
	Count  uint64
	Sum    float64
}

// Snapshot merges the shards into one snapshot. Counts and sum are each
// atomically read but not mutually synchronized — the usual monitoring
// tradeoff; both are within one in-flight Observe of each other.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var out HistogramSnapshot
	for i := range h.shards {
		s := &h.shards[i]
		for b := range out.Counts {
			n := s.counts[b].Load()
			out.Counts[b] += n
			out.Count += n
		}
		out.Sum += math.Float64frombits(s.sumBits.Load())
	}
	return out
}

// Sub subtracts an earlier snapshot of the same histogram from s, leaving
// the observations made between the two snapshot instants. This is how a
// windowed view (per-second P99 during a soak run) is extracted from one
// continuously-observed histogram without ever pausing or resetting it:
// snapshot at each window edge and subtract the previous edge. Counts that
// would underflow (o not actually earlier, or from a different histogram)
// clamp to zero.
func (s *HistogramSnapshot) Sub(o *HistogramSnapshot) {
	for b := range s.Counts {
		if s.Counts[b] >= o.Counts[b] {
			s.Counts[b] -= o.Counts[b]
		} else {
			s.Counts[b] = 0
		}
	}
	if s.Count >= o.Count {
		s.Count -= o.Count
	} else {
		s.Count = 0
	}
	s.Sum -= o.Sum
}

// Mean returns the mean of the summed observations (NaN/±Inf excluded from
// the sum at Observe time). An empty snapshot returns 0.
func (s *HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile extracts the q-quantile (0 ≤ q ≤ 1) as the geometric midpoint of
// the bucket holding that rank: P50/P90/P99 with the layout's ±9% relative
// error. An empty snapshot returns 0; ranks in the underflow bucket return
// 0; ranks in the overflow bucket return the largest finite bound.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for b, n := range s.Counts {
		cum += n
		if cum >= rank {
			switch {
			case b == 0:
				return 0
			case b == HistBuckets-1:
				return histMax
			}
			lo := BucketUpper(b - 1) // bucket b covers [upper(b-1), upper(b))
			return lo * math.Sqrt(BucketUpper(b)/lo)
		}
	}
	return histMax
}

// CumulativeLE returns how many observations were ≤ bound, counting every
// whole bucket whose upper edge is ≤ bound (the underflow bucket included).
// Bounds that sit on bucket edges — like the encoder's power-of-two ladders
// — are therefore exact.
func (s *HistogramSnapshot) CumulativeLE(bound float64) uint64 {
	cum := s.Counts[0]
	for b := 1; b < HistBuckets-1; b++ {
		if BucketUpper(b) > bound {
			break
		}
		cum += s.Counts[b]
	}
	return cum
}
