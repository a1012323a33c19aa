package servecache

import (
	"sync"
	"testing"
)

// TestStatsConcurrentAccuracy hammers the cache from concurrent readers
// and writers and checks the counter invariants afterwards: every
// Get is accounted as exactly one hit or one miss (nothing expires, so
// there is no third outcome), and the entry gauge never exceeds capacity. Run
// under -race this also proves the stats path introduces no data race.
func TestStatsConcurrentAccuracy(t *testing.T) {
	const (
		goroutines = 8
		getsPerG   = 4000
		keySpace   = 64
	)
	c := New[int](32, 0) // smaller than keySpace, so evictions happen too

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < getsPerG; i++ {
				k := Key{Lo: uint64((g*31 + i) % keySpace)}
				if _, ok := c.Get(k); !ok {
					c.Put(k, i)
				}
				// Interleave stats reads with traffic: a torn or racy
				// snapshot shows up under -race or as a broken invariant.
				if i%257 == 0 {
					st := c.Stats()
					if st.Entries > st.Capacity {
						t.Errorf("entries %d exceeds capacity %d", st.Entries, st.Capacity)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	st := c.Stats()
	totalGets := uint64(goroutines * getsPerG)
	if st.Hits+st.Misses != totalGets {
		t.Fatalf("hits %d + misses %d = %d, want %d (every Get is one or the other)",
			st.Hits, st.Misses, st.Hits+st.Misses, totalGets)
	}
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("degenerate workload: hits=%d misses=%d", st.Hits, st.Misses)
	}
	if st.Entries > st.Capacity {
		t.Fatalf("entries %d exceeds capacity %d", st.Entries, st.Capacity)
	}
}
