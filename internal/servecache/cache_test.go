package servecache

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dace/internal/dataset"
	"dace/internal/executor"
	"dace/internal/plan"
	"dace/internal/schema"
	"dace/internal/workload"
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

// TestNewRejectsTTL: entries never expire (a domain salt retires them), so
// the one ttl New accepts is 0 and any other value panics.
func TestNewRejectsTTL(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with a non-zero ttl did not panic")
		}
	}()
	New[int](64, time.Second)
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

// keyOfRef is KeyOf with the stripes written as loops over lane arrays and
// every word assembled a byte at a time: the same function, none of the
// unrolling, no unaligned load.
func keyOfRef(parts ...[]byte) Key {
	hi, lo := uint64(0x9ae16a3b2f90404f), uint64(0xc3a5c85c97cb3127)
	mix := func(w uint64) {
		hi = fmix64(hi ^ w)
		lo = fmix64(lo + (w>>32|w<<32)*0x9e3779b97f4a7c15)
	}
	word := func(p []byte) (w uint64) {
		for i := len(p) - 1; i >= 0; i-- {
			w = w<<8 | uint64(p[i])
		}
		return w
	}
	for _, p := range parts {
		mix(uint64(len(p)))
		if len(p) >= 64 {
			var h, l [4]uint64
			for i, seed := range [4]uint64{laneSeed0, laneSeed1, laneSeed2, laneSeed3} {
				h[i], l[i] = hi^seed, lo+seed
			}
			for ; len(p) >= 32; p = p[32:] {
				for i := range h {
					w := word(p[8*i : 8*i+8])
					h[i] = bits.RotateLeft64(h[i]^w, 29) * stripeMulHi
					l[i] = (bits.RotateLeft64(l[i], 31) + (w>>32 | w<<32)) * stripeMulLo
				}
			}
			for i := range h {
				mix(h[i])
				mix(l[i])
			}
		}
		for ; len(p) >= 8; p = p[8:] {
			mix(word(p[:8]))
		}
		if len(p) > 0 {
			mix(word(p) | uint64(len(p))<<56)
		}
	}
	return Key{Hi: fmix64(hi ^ (lo>>32 | lo<<32)), Lo: fmix64(lo ^ hi)}
}

// TestKeyOfMatchesReference: every length on both sides of the stripe
// threshold and of every stripe, word and tail boundary, at every start
// offset inside a word (the striped loop loads unaligned).
func TestKeyOfMatchesReference(t *testing.T) {
	buf := make([]byte, 8+300)
	rand.New(rand.NewSource(1)).Read(buf)
	for off := 0; off < 8; off++ {
		for n := 0; n <= 300; n++ {
			p := buf[off : off+n]
			if got, want := KeyOf(p), keyOfRef(p); got != want {
				t.Fatalf("offset %d, %d bytes: KeyOf %x, reference %x", off, n, got, want)
			}
			cut := n / 3
			if got, want := KeyOf(p[:cut], p[cut:], nil), keyOfRef(p[:cut], p[cut:], nil); got != want {
				t.Fatalf("offset %d, %d bytes split at %d: KeyOf %x, reference %x", off, n, cut, got, want)
			}
		}
	}
}

// FuzzKeyOf holds KeyOf to the reference on arbitrary bytes, cut into two
// parts at an arbitrary place, and to the part-boundary rule.
func FuzzKeyOf(f *testing.F) {
	f.Add([]byte(nil), uint16(0))
	f.Add([]byte("12345678AB"), uint16(3))
	f.Add(bytes.Repeat([]byte("0123456789abcdef"), 9), uint16(64))
	f.Fuzz(func(t *testing.T, p []byte, cut uint16) {
		c := 0
		if len(p) > 0 {
			c = int(cut) % len(p)
		}
		whole, split := KeyOf(p), KeyOf(p[:c], p[c:])
		if whole != keyOfRef(p) || split != keyOfRef(p[:c], p[c:]) {
			t.Fatalf("KeyOf differs from the reference on %d bytes cut at %d", len(p), c)
		}
		if whole == split {
			t.Fatalf("one part and two parts of the same %d bytes share a key", len(p))
		}
	})
}

// TestKeyOfAvalanche: flipping one input bit flips every output bit about
// half the time, wherever the bit sits — each lane of the first and of the
// last stripe, low and high bit of a word, the word path after the stripes
// and the sub-word tail.
func TestKeyOfAvalanche(t *testing.T) {
	const (
		bodies = 4000
		tail   = 13 // bytes past the last stripe: one word and a 5-byte remainder
	)
	const first, last, past = 0, 1, 2 // region a byte offset counts from
	type where struct{ region, off, bit int }
	var at []where
	for lane := 0; lane < 4; lane++ {
		for _, region := range []int{first, last} {
			at = append(at, where{region, 8 * lane, 0}, where{region, 8*lane + 3, 7}, where{region, 8*lane + 7, 7})
		}
	}
	at = append(at, where{past, 0, 0}, where{past, 7, 7}, where{past, 8, 3}, where{past, tail - 1, 7})
	flips := make([][128]int, len(at))
	rng := rand.New(rand.NewSource(2))
	for b := 0; b < bodies; b++ {
		stripes := 2 + rng.Intn(126) // 77–4,077 bytes
		body := make([]byte, 32*stripes+tail)
		rng.Read(body)
		base := KeyOf(body)
		for i, w := range at {
			pos := [...]int{first: 0, last: 32 * (stripes - 1), past: 32 * stripes}[w.region] + w.off
			body[pos] ^= 1 << w.bit
			k := KeyOf(body)
			body[pos] ^= 1 << w.bit
			dh, dl := k.Hi^base.Hi, k.Lo^base.Lo
			for o := 0; o < 64; o++ {
				flips[i][o] += int(dh >> o & 1)
				flips[i][64+o] += int(dl >> o & 1)
			}
		}
	}
	for i, w := range at {
		for o, n := range flips[i] {
			if f := float64(n) / bodies; f < 0.45 || f > 0.55 {
				t.Errorf("input bit %+v flips output bit %d in %.3f of %d bodies, want 0.45–0.55", w, o, f, bodies)
			}
		}
	}
}

// TestKeyOfStructuredCorpus: near-identical inputs — the kind a body cache
// sees — get distinct keys. 512 IMDB plan bodies, each with every digit of
// its root est_cost replaced by every other digit; and one byte string
// under every two- and three-part split.
func TestKeyOfStructuredCorpus(t *testing.T) {
	imdb := schema.IMDB()
	samples, err := dataset.Collect(imdb, workload.Complex(imdb, 512, 12), executor.M1())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[Key]string)
	add := func(what string, parts ...[]byte) {
		k := KeyOf(parts...)
		if prev, dup := seen[k]; dup {
			t.Fatalf("%s and %s share key %x", prev, what, k)
		}
		seen[k] = what
	}
	for i, p := range dataset.Plans(samples) {
		body, err := json.Marshal(&plan.Plan{Database: p.Database, Root: p.Root})
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("body %d", i), body)
		field := []byte(`"est_cost":`)
		start := bytes.Index(body, field) + len(field)
		for j := start; body[j] != ',' && body[j] != '}'; j++ {
			orig := body[j]
			if orig < '0' || orig > '9' {
				continue
			}
			for d := byte('0'); d <= '9'; d++ {
				if d != orig {
					body[j] = d
					add(fmt.Sprintf("body %d with byte %d = %c", i, j, d), body)
				}
			}
			body[j] = orig
		}
	}
	if len(seen) < 512*10 {
		t.Fatalf("corpus has only %d bodies", len(seen))
	}
	s := bytes.Repeat([]byte("0123456789abcdef"), 9) // 144 bytes: stripes, words and splits on both sides of 64
	add("one part", s)
	for i := 0; i <= len(s); i++ {
		add(fmt.Sprintf("split at %d", i), s[:i], s[i:])
		for j := i; j <= len(s); j += 7 {
			add(fmt.Sprintf("split at %d and %d", i, j), s[:i], s[i:j], s[j:])
		}
	}
}

func TestKeyOfAllocs(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 125)
	tag, db := []byte("bin\x00"), []byte("imdb")
	if n := testing.AllocsPerRun(100, func() { keySink = KeyOf(body, tag, db) }); n != 0 {
		t.Fatalf("KeyOf allocates %v times per call, want 0", n)
	}
}

// TestConcurrentMixed hammers every entry point from many goroutines; run
// with -race this is the memory-safety check for the sharded lock scheme.
func TestConcurrentMixed(t *testing.T) {
	c := New[int](128, 0)
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

// BenchmarkKeyOf hashes one body-sized part plus the two short parts the
// serving layer appends (format tag, database).
func BenchmarkKeyOf(b *testing.B) {
	for _, n := range []int{300, 1000, 2000, 4000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			body := make([]byte, n)
			rand.New(rand.NewSource(int64(n))).Read(body)
			tag, db := []byte("bin\x00"), []byte("imdb")
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				keySink = KeyOf(body, tag, db)
			}
		})
	}
}

var keySink Key
