package telemetry

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestBucketBounds checks the layout invariant every other property rests
// on: each finite value lands in the bucket whose [upper(i-1), upper(i))
// range contains it.
func TestBucketBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		// Log-uniform across (and beyond) the finite range.
		v := math.Exp(rng.Float64()*80 - 40)
		b := bucketOf(v)
		switch {
		case v < histMin:
			if b != 0 {
				t.Fatalf("v=%g: bucket %d, want underflow", v, b)
			}
		case v >= histMax:
			if b != HistBuckets-1 {
				t.Fatalf("v=%g: bucket %d, want overflow", v, b)
			}
		default:
			lo, hi := BucketUpper(b-1), BucketUpper(b)
			if v < lo || v >= hi {
				t.Fatalf("v=%g: bucket %d covers [%g,%g)", v, b, lo, hi)
			}
		}
	}
	for _, v := range []float64{0, -1, math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64} {
		if b := bucketOf(v); b != 0 {
			t.Fatalf("v=%v: bucket %d, want underflow", v, b)
		}
	}
	if b := bucketOf(math.Inf(1)); b != HistBuckets-1 {
		t.Fatalf("+Inf: bucket %d, want overflow", b)
	}
	// Exact powers of two sit on bucket lower edges.
	if b := bucketOf(1.0); BucketUpper(b-1) != 1.0 {
		t.Fatalf("1.0 not on a bucket edge: bucket %d lower %g", b, BucketUpper(b-1))
	}
}

// TestQuantileAccuracy checks extracted quantiles stay within the layout's
// one-bucket (~19% wide, geometric-midpoint ±9%) error of the exact value.
func TestQuantileAccuracy(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 50000)
	for i := range vals {
		// Log-normalish latencies around 100µs.
		vals[i] = 100e-6 * math.Exp(rng.NormFloat64())
		h.Observe(vals[i])
	}
	snap := h.Snapshot()
	if snap.Count != uint64(len(vals)) {
		t.Fatalf("count %d, want %d", snap.Count, len(vals))
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if math.Abs(snap.Sum-sum) > 1e-9*sum {
		t.Fatalf("sum %g, want %g", snap.Sum, sum)
	}
	exact := append([]float64(nil), vals...)
	sortFloats(exact)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := exact[int(q*float64(len(exact)-1))]
		got := snap.Quantile(q)
		if got < want/1.11 || got > want*1.11 {
			t.Fatalf("P%d: got %g, exact %g (>±10%%)", int(q*100), got, want)
		}
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestQuantileEdges(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile %g", got)
	}
	var h Histogram
	h.Observe(0) // underflow
	h.Observe(math.Ldexp(1, histMaxExp+3))
	snap := h.Snapshot()
	if got := snap.Quantile(0); got != 0 {
		t.Fatalf("underflow rank quantile %g, want 0", got)
	}
	if got := snap.Quantile(1); got != histMax {
		t.Fatalf("overflow rank quantile %g, want %g", got, histMax)
	}
}

// TestSnapshotMergeable: adding two snapshots bucket by bucket equals one
// histogram that observed both streams — the fixed shared layout makes this
// exact.
func TestSnapshotMergeable(t *testing.T) {
	var a, b, both Histogram
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		v := math.Exp(rng.NormFloat64())
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		both.Observe(v)
	}
	sa, sb, sw := a.Snapshot(), b.Snapshot(), both.Snapshot()
	for i := range sa.Counts {
		sa.Counts[i] += sb.Counts[i]
	}
	sa.Count += sb.Count
	sa.Sum += sb.Sum
	if sa.Count != sw.Count || sa.Counts != sw.Counts {
		t.Fatal("merged buckets differ from combined histogram")
	}
	if math.Abs(sa.Sum-sw.Sum) > 1e-9*math.Abs(sw.Sum) {
		t.Fatalf("merged sum %g vs combined %g", sa.Sum, sw.Sum)
	}
}

// TestCumulativeLEExactAtEdges: power-of-two bounds are internal bucket
// edges, so cumulative counts there are exact, and the ladder is monotone.
func TestCumulativeLEExactAtEdges(t *testing.T) {
	var h Histogram
	n := map[float64]int{0.5: 100, 1.0: 50, 1.5: 25, 3.0: 10}
	for v, k := range n {
		for i := 0; i < k; i++ {
			h.Observe(v)
		}
	}
	snap := h.Snapshot()
	// le=1 excludes the exact 1.0 observations (edges are exclusive above).
	if got := snap.CumulativeLE(1.0); got != 100 {
		t.Fatalf("le=1: %d, want 100", got)
	}
	if got := snap.CumulativeLE(2.0); got != 175 {
		t.Fatalf("le=2: %d, want 175", got)
	}
	if got := snap.CumulativeLE(4.0); got != 185 {
		t.Fatalf("le=4: %d, want 185", got)
	}
	prev := uint64(0)
	for _, b := range LatencyBounds() {
		cur := snap.CumulativeLE(b)
		if cur < prev {
			t.Fatalf("cumulative counts not monotone at %g", b)
		}
		prev = cur
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines; the
// merged snapshot must account for every observation (run under -race in
// CI: the telemetry package is in the race matrix).
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 20000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(rng.Float64())
			}
		}(int64(g))
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != goroutines*per {
		t.Fatalf("count %d, want %d", got, goroutines*per)
	}
}

func TestCounterGauge(t *testing.T) {
	var c Counter
	for i := 0; i < 42; i++ {
		c.Inc()
	}
	if c.Load() != 42 {
		t.Fatalf("counter %d", c.Load())
	}
	var g Gauge
	g.Set(1.5)
	g.Set(1.25)
	if g.Load() != 1.25 {
		t.Fatalf("gauge %g", g.Load())
	}
}

// TestObserveAllocFree guards the hot-path contract: recording into a
// counter, gauge, and histogram allocates nothing.
func TestObserveAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	var c Counter
	var g Gauge
	var h Histogram
	if avg := testing.AllocsPerRun(200, func() {
		c.Inc()
		g.Set(3.25)
		h.Observe(123e-6)
	}); avg != 0 {
		t.Fatalf("instrument ops allocate %.1f/op, want 0", avg)
	}
}

func BenchmarkObserve(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(123e-6)
		}
	})
}

// TestSnapshotSub checks the windowed-view contract: subtracting an earlier
// snapshot leaves exactly the observations made between the two instants.
func TestSnapshotSub(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	first := h.Snapshot()
	for i := 0; i < 50; i++ {
		h.Observe(1.0)
	}
	window := h.Snapshot()
	window.Sub(&first)
	if window.Count != 50 {
		t.Fatalf("window count %d, want 50", window.Count)
	}
	if got := window.Quantile(0.5); math.Abs(got-1.0) > 0.15 {
		t.Fatalf("window median %g, want ~1.0 (the earlier 1ms observations must be gone)", got)
	}
	if m := window.Mean(); math.Abs(m-1.0) > 1e-9 {
		t.Fatalf("window mean %g, want 1.0", m)
	}
	// Subtracting a later snapshot from an earlier one clamps, not wraps.
	later := h.Snapshot()
	first.Sub(&later)
	if first.Count != 0 {
		t.Fatalf("clamped count %d, want 0", first.Count)
	}
	for b, n := range first.Counts {
		if n != 0 {
			t.Fatalf("clamped bucket %d holds %d", b, n)
		}
	}
}
