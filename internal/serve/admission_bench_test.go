package serve

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dace/internal/metrics"
)

// BenchmarkMissAdmission is the keep-or-delete evidence for the admission
// stage (ROADMAP, EXPERIMENTS.md "Admission stage on vs off"): /predict
// requests whose fingerprint never repeats, driven through
// Handler().ServeHTTP by c closed-loop clients, with the stage on (daced's
// defaults) and off (Config{CacheSize} only), at GOMAXPROCS 1 and N. Every
// operation decodes, misses both caches, runs a forward pass and renders;
// the only difference between the two columns is batcher.submit.
//
//	go test ./internal/serve -run '^$' -bench MissAdmission -benchtime 20000x
func BenchmarkMissAdmission(b *testing.B) {
	m, samples := trainedModel(b)
	procsN := runtime.GOMAXPROCS(0)
	procs := []int{1}
	if procsN > 1 {
		procs = append(procs, procsN)
	}
	const cacheSize = 1024
	stages := []struct {
		name string
		cfg  Config
	}{
		{"off", Config{CacheSize: cacheSize}},
		{"on", Config{CacheSize: cacheSize, MaxBatch: 64, QueueDepth: 4096}},
	}
	for _, p := range procs {
		for _, c := range []int{1, 16, 64} {
			for _, st := range stages {
				b.Run(fmt.Sprintf("procs=%d/c=%d/stage=%s", p, c, st.name), func(b *testing.B) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
					s := NewWithConfig(m, st.cfg)
					defer s.Close()
					h := s.Handler().ServeHTTP

					// Clients draw operations from one counter; each patches its
					// own body with a cost no other operation uses.
					drivers := make([]*missDriver, c)
					for i := range drivers {
						drivers[i] = jsonMissDriver(b, samples[i%len(samples)].Plan)
						drivers[i].op = i * 10_000_000
					}
					run := func(n int) []float64 { // per-operation latencies, µs
						var next atomic.Int64
						lat := make([][]float64, c)
						var wg sync.WaitGroup
						for i, d := range drivers {
							wg.Add(1)
							go func(i int, d *missDriver) {
								defer wg.Done()
								for next.Add(1) <= int64(n) {
									t0 := time.Now()
									d.do(h)
									lat[i] = append(lat[i], float64(time.Since(t0).Nanoseconds())/1e3)
								}
							}(i, d)
						}
						wg.Wait()
						var all []float64
						for _, l := range lat {
							all = append(all, l...)
						}
						return all
					}
					run(2 * cacheSize) // fill both caches: from here every insert evicts
					b.ResetTimer()
					lat := run(b.N)
					b.StopTimer()

					sort.Float64s(lat)
					b.ReportMetric(metrics.Quantile(lat, 0.5), "p50-µs")
					b.ReportMetric(metrics.Quantile(lat, 0.99), "p99-µs")
					b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
					if s.bat != nil {
						if qs := s.bat.stats(); qs.Rejected != 0 {
							b.Fatalf("stage rejected %d requests: the rows would compare different work", qs.Rejected)
						}
					}
				})
			}
		}
	}
}
