// Package servecache is the serving layer's prediction cache: a sharded LRU
// keyed by 128-bit fingerprints with singleflight request coalescing. Cost-estimation traffic is highly repetitive — an optimizer
// re-costs the same sub-plans across candidate joins — so the cache converts
// the model's per-plan forward pass into a hash-and-lookup for the hot tail.
//
// Design points:
//
//   - Power-of-two shards, each with its own mutex, map, and intrusive LRU
//     list. The shard index reads low fingerprint bits, which the hash has
//     already avalanched, so shards load-balance without rehashing.
//   - GetOrCompute coalesces concurrent misses on one key into a single
//     compute call (singleflight): N concurrent requests for the same plan
//     trigger one forward pass, and the waiters share its result.
//   - There is no invalidation: a caller whose values go stale together (one
//     served model) folds a DomainSalt into every key and moves to a new
//     salt when they do. The old domain's entries are never asked for again
//     and leave by LRU, so an entry never goes stale and needs no TTL.
//   - Counters (hits/misses/evictions/coalesced waits) are
//     atomics, readable at any time via Stats.
//   - KeyOf hashes raw bytes (a request body) to a Key. On a hit it is most
//     of the request's cost, so long parts are hashed in 32-byte stripes
//     over eight independent lanes; keys are process-local values, never
//     stored or sent.
package servecache

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Key is a 128-bit cache key — layout-compatible with plan.Fingerprint
// (convert with servecache.Key(fp)), but also usable for raw byte-stream
// hashes via KeyOf. The package deliberately does not import plan: it caches
// anything keyed by a good 128-bit hash.
type Key struct {
	Hi, Lo uint64
}

// numShards is the shard count (power of two). 16 shards keep per-shard
// mutex hold times short at high concurrency while staying cheap for tiny
// caches.
const numShards = 16

// entry is one cached value, linked into its shard's LRU list (head = most
// recently used).
type entry[V any] struct {
	key        Key
	val        V
	prev, next *entry[V]
}

// flight is one in-progress compute that later arrivals wait on.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

type shard[V any] struct {
	mu       sync.Mutex
	items    map[Key]*entry[V]
	inflight map[Key]*flight[V]
	head     *entry[V] // most recently used
	tail     *entry[V] // least recently used
	capacity int
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Coalesced uint64 `json:"coalesced"`
	Inflight  uint64 `json:"inflight"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// Cache is a sharded LRU with singleflight coalescing. The zero value is not
// usable; construct with New.
type Cache[V any] struct {
	shards [numShards]shard[V]

	hits, misses, evictions, coalesced, inflight atomic.Uint64
}

// New builds a cache holding up to capacity entries (rounded up so every
// shard holds at least one). ttl must be 0 — entries never expire, since a
// domain salt, not a clock, retires them — and anything else panics. The
// parameter remains only because benchmark/ passes it.
func New[V any](capacity int, ttl time.Duration) *Cache[V] {
	if ttl != 0 {
		panic("servecache: entries do not expire; ttl must be 0")
	}
	perShard := (capacity + numShards - 1) / numShards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache[V]{}
	for i := range c.shards {
		c.shards[i].items = make(map[Key]*entry[V])
		c.shards[i].inflight = make(map[Key]*flight[V])
		c.shards[i].capacity = perShard
	}
	return c
}

func (c *Cache[V]) shardOf(k Key) *shard[V] { return &c.shards[k.Lo&(numShards-1)] }

// Get returns the cached value for k, refreshing its LRU position.
func (c *Cache[V]) Get(k Key) (V, bool) {
	s := c.shardOf(k)
	s.mu.Lock()
	e, ok := s.items[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	s.moveToFront(e)
	v := e.val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Lookup is Get without the miss accounting: a present entry counts a hit
// and refreshes its LRU position exactly like Get, but an absent key moves
// no counter. It exists for two-phase callers on allocation-sensitive hot
// paths — probe with Lookup first (no compute closure needs to be built on
// a hit), fall back to GetOrCompute on absence — without one logical
// request being counted as two misses.
func (c *Cache[V]) Lookup(k Key) (V, bool) {
	s := c.shardOf(k)
	s.mu.Lock()
	e, ok := s.items[k]
	if !ok {
		s.mu.Unlock()
		var zero V
		return zero, false
	}
	s.moveToFront(e)
	v := e.val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Put inserts (or refreshes) k → v, evicting the shard's least recently
// used entry when over capacity.
func (c *Cache[V]) Put(k Key, v V) {
	s := c.shardOf(k)
	s.mu.Lock()
	c.insertLocked(s, k, v)
	s.mu.Unlock()
}

// ErrComputePanicked is what callers coalesced onto a GetOrCompute whose fn
// panicked receive; the panic itself propagates on the caller that ran fn.
var ErrComputePanicked = errors.New("servecache: compute panicked")

// GetOrCompute returns the cached value for k, or runs fn exactly once per
// concurrent group of callers (singleflight) and caches its result. The
// compute runs without any shard lock held. A fn error is returned to every
// coalesced caller and nothing is cached.
func (c *Cache[V]) GetOrCompute(k Key, fn func() (V, error)) (V, error) {
	s := c.shardOf(k)
	s.mu.Lock()
	if e, ok := s.items[k]; ok {
		s.moveToFront(e)
		v := e.val
		s.mu.Unlock()
		c.hits.Add(1)
		return v, nil
	}
	if fl, ok := s.inflight[k]; ok {
		s.mu.Unlock()
		c.coalesced.Add(1)
		<-fl.done
		return fl.val, fl.err
	}
	fl := &flight[V]{done: make(chan struct{})}
	s.inflight[k] = fl
	c.inflight.Add(1)
	s.mu.Unlock()

	c.misses.Add(1)
	// The flight is retired in a defer so a panicking fn cannot strand it:
	// the entry goes, waiters wake to ErrComputePanicked (fl.err until fn
	// returns), nothing is inserted, and the panic continues up the leader's
	// stack to whoever recovers it (net/http, for a handler).
	fl.err = ErrComputePanicked
	defer func() {
		s.mu.Lock()
		delete(s.inflight, k)
		if fl.err == nil {
			c.insertLocked(s, k, fl.val)
		}
		s.mu.Unlock()
		c.inflight.Add(^uint64(0))
		close(fl.done)
	}()
	fl.val, fl.err = fn()
	return fl.val, fl.err
}

// Len returns the live entry count.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Coalesced: c.coalesced.Load(),
		Inflight:  c.inflight.Load(),
		Entries:   c.Len(),
		Capacity:  numShards * c.shards[0].capacity,
	}
}

// insertLocked adds or refreshes k → v in s (s.mu held), evicting the LRU
// tail when the shard is over capacity.
func (c *Cache[V]) insertLocked(s *shard[V], k Key, v V) {
	if e, ok := s.items[k]; ok {
		e.val = v
		s.moveToFront(e)
		return
	}
	e := &entry[V]{key: k, val: v}
	s.items[k] = e
	s.pushFront(e)
	for len(s.items) > s.capacity {
		victim := s.tail
		s.remove(victim)
		c.evictions.Add(1)
	}
}

func (s *shard[V]) pushFront(e *entry[V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard[V]) moveToFront(e *entry[V]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

func (s *shard[V]) remove(e *entry[V]) {
	s.unlink(e)
	delete(s.items, e.key)
}

func (s *shard[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// KeyOf hashes a sequence of byte strings into a Key. Part boundaries are
// hashed (each part's length prefixes its bytes), so ("ab","c") and
// ("a","bc") produce different keys. The serving layer uses it to memoize
// whole request bodies: identical wire bytes → identical response.
//
// The running state is two 64-bit lanes, the construction the plan
// fingerprint uses: every word enters hi by xor and lo by add of its
// half-swapped multiple, each followed by a full fmix64. That chain retires
// one word per fmix64 latency, so a part of 64 bytes or more is consumed in
// 32-byte stripes instead: four (hi, lo) lane pairs seeded from the running
// state, word i of a stripe entering pair i the same two ways through one
// rotate and one multiply — a bijection of the word for any lane state, and
// eight independent chains for the CPU to overlap. The pairs fold back into
// the running state through the full mix at the end of the part; the < 32
// bytes left over, and every shorter part, take the word-at-a-time path.
//
// The function is unkeyed and its values are not stable across versions:
// nothing persists or ships a Key.
func KeyOf(parts ...[]byte) Key {
	hi, lo := uint64(0x9ae16a3b2f90404f), uint64(0xc3a5c85c97cb3127)
	mix := func(w uint64) {
		hi = fmix64(hi ^ w)
		lo = fmix64(lo + bits.RotateLeft64(w, 32)*0x9e3779b97f4a7c15)
	}
	for _, p := range parts {
		mix(uint64(len(p)))
		if len(p) >= 2*stripeBytes {
			h0, h1, h2, h3 := hi^laneSeed0, hi^laneSeed1, hi^laneSeed2, hi^laneSeed3
			l0, l1, l2, l3 := lo+laneSeed0, lo+laneSeed1, lo+laneSeed2, lo+laneSeed3
			for ; len(p) >= stripeBytes; p = p[stripeBytes:] {
				w0 := binary.LittleEndian.Uint64(p)
				w1 := binary.LittleEndian.Uint64(p[8:])
				w2 := binary.LittleEndian.Uint64(p[16:])
				w3 := binary.LittleEndian.Uint64(p[24:])
				h0, l0 = stripeHi(h0, w0), stripeLo(l0, w0)
				h1, l1 = stripeHi(h1, w1), stripeLo(l1, w1)
				h2, l2 = stripeHi(h2, w2), stripeLo(l2, w2)
				h3, l3 = stripeHi(h3, w3), stripeLo(l3, w3)
			}
			for _, w := range [...]uint64{h0, l0, h1, l1, h2, l2, h3, l3} {
				mix(w)
			}
		}
		for ; len(p) >= 8; p = p[8:] {
			mix(binary.LittleEndian.Uint64(p))
		}
		if len(p) > 0 {
			var w uint64
			for i := len(p) - 1; i >= 0; i-- {
				w = w<<8 | uint64(p[i])
			}
			mix(w | uint64(len(p))<<56)
		}
	}
	return Key{Hi: fmix64(hi ^ bits.RotateLeft64(lo, 32)), Lo: fmix64(lo ^ hi)}
}

// stripeBytes is one stripe of KeyOf: four words, one per lane pair.
const stripeBytes = 32

// Lane seeds and lane multipliers of the striped loop: the odd 64-bit primes
// of xxHash64.
const (
	laneSeed0   = 0x9e3779b185ebca87
	laneSeed1   = 0xc2b2ae3d27d4eb4f
	laneSeed2   = 0x165667b19e3779f9
	laneSeed3   = 0x85ebca77c2b2ae63
	stripeMulHi = laneSeed0
	stripeMulLo = 0x27d4eb2f165667c5
)

// stripeHi and stripeLo absorb one word into a hi or a lo stripe lane: xor,
// or add of the half-swapped multiple, like mix — with a rotate and an odd
// multiply standing in for fmix64 until the lanes fold.
func stripeHi(h, w uint64) uint64 { return bits.RotateLeft64(h^w, 29) * stripeMulHi }
func stripeLo(l, w uint64) uint64 {
	return (bits.RotateLeft64(l, 31) + bits.RotateLeft64(w, 32)) * stripeMulLo
}

// DomainSalt derives the key salt of generation gen of cache domain id, to
// be XORed into every key of the domain. One domain is one stream of
// values that go stale together — the serving layer's base model (id "") and
// each tenant's adapter view — and a new generation is how they go stale:
// nothing is scanned or cleared.
func DomainSalt(id string, gen uint64) Key {
	var g [8]byte
	binary.LittleEndian.PutUint64(g[:], gen)
	return KeyOf([]byte(id), g[:])
}

// fmix64 is the murmur3 64-bit finalizer.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
