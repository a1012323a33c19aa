package servecache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// key spreads i across shards the way a real fingerprint would: both words
// are already avalanched, so shardOf sees well-mixed low bits.
func key(i int) Key { return Key{Hi: fmix64(uint64(i) + 1), Lo: fmix64(uint64(i) + 0x1234)} }

func TestGetPutBasics(t *testing.T) {
	c := New[int](64, 0)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(key(1), 11)
	if v, ok := c.Get(key(1)); !ok || v != 11 {
		t.Fatalf("got (%d, %v), want (11, true)", v, ok)
	}
	c.Put(key(1), 12) // refresh
	if v, _ := c.Get(key(1)); v != 12 {
		t.Fatalf("refresh lost: got %d, want 12", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 2 hits / 1 miss / 1 entry", st)
	}
}

// TestLRUEvictionOrder pins keys to one shard so the eviction order is the
// shard's LRU order: recently-Get keys survive, stale ones go first.
func TestLRUEvictionOrder(t *testing.T) {
	c := New[int](numShards*2, 0) // 2 entries per shard
	shardKey := func(i int) Key { return Key{Hi: uint64(i), Lo: uint64(i) << 4} }
	a, b, d := shardKey(1), shardKey(2), shardKey(3)

	c.Put(a, 1)
	c.Put(b, 2)
	c.Get(a) // a is now MRU; b is LRU
	c.Put(d, 3)
	if _, ok := c.Get(b); ok {
		t.Fatal("LRU entry b should have been evicted")
	}
	if _, ok := c.Get(a); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if _, ok := c.Get(d); !ok {
		t.Fatal("new entry d was evicted")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestCapacityBound(t *testing.T) {
	c := New[int](32, 0)
	for i := 0; i < 1000; i++ {
		c.Put(key(i), i)
	}
	if n, cap := c.Len(), c.Stats().Capacity; n > cap {
		t.Fatalf("cache holds %d entries, capacity %d", n, cap)
	}
}

func TestTTLExpiry(t *testing.T) {
	c := New[int](64, time.Second)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }

	c.Put(key(1), 1)
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("entry expired immediately")
	}
	now = now.Add(2 * time.Second)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("entry survived past its TTL")
	}
	if st := c.Stats(); st.Expired != 1 || st.Entries != 0 {
		t.Fatalf("stats %+v, want 1 expired / 0 entries", st)
	}

	// A refresh restarts the clock.
	c.Put(key(2), 2)
	now = now.Add(800 * time.Millisecond)
	c.Put(key(2), 2)
	now = now.Add(800 * time.Millisecond)
	if _, ok := c.Get(key(2)); !ok {
		t.Fatal("Put refresh did not extend the TTL")
	}

	// GetOrCompute must also treat an expired entry as a miss.
	c.Put(key(3), 3)
	now = now.Add(2 * time.Second)
	v, err := c.GetOrCompute(key(3), func() (int, error) { return 33, nil })
	if err != nil || v != 33 {
		t.Fatalf("GetOrCompute over expired entry = (%d, %v), want recompute to 33", v, err)
	}
}

func TestGetOrComputeCoalesces(t *testing.T) {
	c := New[int](64, 0)
	const waiters = 32
	var computes atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.GetOrCompute(key(7), func() (int, error) {
				computes.Add(1)
				<-release // hold the flight open so everyone piles up
				return 77, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Wait until every other caller has coalesced onto the one compute in
	// flight, then release it (a caller arriving after the release would be
	// a plain hit).
	for c.Stats().Coalesced < waiters-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computes for %d concurrent callers, want 1", n, waiters)
	}
	for i, v := range results {
		if v != 77 {
			t.Fatalf("waiter %d got %d, want 77", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != waiters-1 || st.Inflight != 0 {
		t.Fatalf("stats %+v, want 1 miss / %d coalesced / 0 inflight", st, waiters-1)
	}
	// The result was cached: the next call is a pure hit.
	if v, _ := c.GetOrCompute(key(7), func() (int, error) { t.Fatal("recompute"); return 0, nil }); v != 77 {
		t.Fatalf("cached value %d, want 77", v)
	}
}

func TestGetOrComputeErrorNotCached(t *testing.T) {
	c := New[int](64, 0)
	boom := errors.New("boom")
	if _, err := c.GetOrCompute(key(1), func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("a failed compute must not be cached")
	}
	// The next caller retries rather than seeing the stale error.
	v, err := c.GetOrCompute(key(1), func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("retry = (%d, %v), want (5, nil)", v, err)
	}
}

// TestGetOrComputePanicReleasesWaiters: a compute that panics must not
// strand its flight. The leader's panic propagates to the leader; the two
// callers coalesced onto it wake to ErrComputePanicked instead of blocking
// forever, nothing is cached, and the next caller recomputes.
func TestGetOrComputePanicReleasesWaiters(t *testing.T) {
	c := New[int](64, 0)
	release := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		c.GetOrCompute(key(3), func() (int, error) {
			<-release
			panic("compute blew up")
		})
	}()
	for c.Stats().Inflight == 0 {
		time.Sleep(time.Millisecond)
	}
	const waiters = 2
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := c.GetOrCompute(key(3), func() (int, error) { return 0, errors.New("waiter ran the compute") })
			errs <- err
		}()
	}
	for c.Stats().Coalesced < waiters {
		time.Sleep(time.Millisecond)
	}
	close(release)

	timeout := time.After(time.Second)
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrComputePanicked) {
				t.Fatalf("waiter got %v, want ErrComputePanicked", err)
			}
		case <-timeout:
			t.Fatal("a coalesced waiter is still blocked 1 s after its leader panicked")
		}
	}
	if got := <-leaderPanic; got != "compute blew up" {
		t.Fatalf("leader recovered %v, want its own panic value", got)
	}
	if st := c.Stats(); st.Inflight != 0 || st.Entries != 0 {
		t.Fatalf("after the panic: %d in flight, %d entries, want 0 and 0", st.Inflight, st.Entries)
	}
	v, err := c.GetOrCompute(key(3), func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("call after the panic = (%d, %v), want a recompute to (5, nil)", v, err)
	}
}

func TestKeyOfBoundaries(t *testing.T) {
	if KeyOf([]byte("ab"), []byte("c")) == KeyOf([]byte("a"), []byte("bc")) {
		t.Fatal(`KeyOf("ab","c") must differ from KeyOf("a","bc")`)
	}
	if KeyOf([]byte("abc")) != KeyOf([]byte("abc")) {
		t.Fatal("KeyOf is not deterministic")
	}
	if KeyOf([]byte("abc")) == KeyOf([]byte("abd")) {
		t.Fatal("single-byte change did not move the key")
	}
	if KeyOf() == KeyOf([]byte{}) {
		t.Fatal("zero parts and one empty part must hash differently")
	}
	// Tail bytes beyond the last full word must matter.
	if KeyOf([]byte("12345678AB")) == KeyOf([]byte("12345678AC")) {
		t.Fatal("tail byte change did not move the key")
	}
}

// TestKeyOfDomainSeparation: the body cache keys identical bytes under
// different wire encodings into different domains — a tag part (or a
// different trailing part) must change the key even when the raw body
// bytes are equal.
func TestKeyOfDomainSeparation(t *testing.T) {
	body := []byte(`{"database":"d","root":{"type":1}}`)
	binTag := []byte("bin\x00")
	jsonKey := KeyOf(body, []byte(""), []byte("d"))
	binKey := KeyOf(body, binTag, []byte("d"))
	if jsonKey == binKey {
		t.Fatal("binary and JSON domains collide for identical body bytes")
	}
	// The tag must separate even against a format string that happens to
	// share a prefix with it.
	if KeyOf(body, []byte("bin"), []byte("d")) == binKey {
		t.Fatal("tag with NUL collides with plain 'bin' format string")
	}
	// Database remains part of the domain in both encodings.
	if KeyOf(body, binTag, []byte("d")) == KeyOf(body, binTag, []byte("e")) {
		t.Fatal("database ignored in binary domain")
	}
	// Domain salts: a new generation and a different domain id each move
	// the salt; the base domain's empty id is a domain like any other.
	if DomainSalt("", 1) == DomainSalt("", 2) || DomainSalt("", 1) == DomainSalt("a", 1) {
		t.Fatal("domain salt ignores the generation or the domain id")
	}
}

// TestConcurrentMixed hammers every entry point from many goroutines; run
// with -race this is the memory-safety check for the sharded lock scheme.
func TestConcurrentMixed(t *testing.T) {
	c := New[int](128, 50*time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key(i % 97)
				switch i % 5 {
				case 0:
					c.Put(k, i)
				case 1:
					c.Get(k)
				case 2:
					c.GetOrCompute(k, func() (int, error) { return i, nil })
				case 3:
					c.Len()
				case 4:
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if n, cap := c.Len(), c.Stats().Capacity; n > cap {
		t.Fatalf("cache holds %d entries, capacity %d", n, cap)
	}
}

// TestShardBalance sanity-checks that fingerprint-style keys spread across
// shards instead of piling onto one.
func TestShardBalance(t *testing.T) {
	counts := make(map[uint64]int)
	for i := 0; i < 1<<12; i++ {
		counts[key(i).Lo&(numShards-1)]++
	}
	want := (1 << 12) / numShards
	for s, n := range counts {
		if n < want/2 || n > want*2 {
			t.Fatalf("shard %d holds %d of %d keys (want ≈%d)", s, n, 1<<12, want)
		}
	}
}

func TestStatsCapacityRounding(t *testing.T) {
	// A capacity below the shard count still admits one entry per shard.
	c := New[int](1, 0)
	if got := c.Stats().Capacity; got != numShards {
		t.Fatalf("capacity %d, want %d (one per shard)", got, numShards)
	}
}

func BenchmarkGetHit(b *testing.B) {
	c := New[[]float64](1<<12, 0)
	keys := make([]Key, 256)
	for i := range keys {
		keys[i] = key(i)
		c.Put(keys[i], []float64{1, 2, 3})
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Get(keys[i%len(keys)])
			i++
		}
	})
}

func ExampleKeyOf() {
	k := KeyOf([]byte(`{"root":null}`), []byte("plan"), nil)
	fmt.Println(k == KeyOf([]byte(`{"root":null}`), []byte("plan"), nil))
	// Output: true
}
