package servecache

import "testing"

// TestLookupCountsNoMiss pins the two-phase probe contract: Lookup behaves
// exactly like Get on a hit (hit counter, LRU refresh) but an absent key
// moves no counter, so probe-then-GetOrCompute callers count one logical
// miss, not two.
func TestLookupCountsNoMiss(t *testing.T) {
	c := New[int](64, 0)
	if _, ok := c.Lookup(key(1)); ok {
		t.Fatal("empty cache reported a hit")
	}
	if st := c.Stats(); st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("Lookup on absence moved counters: %+v", st)
	}
	c.Put(key(1), 11)
	if v, ok := c.Lookup(key(1)); !ok || v != 11 {
		t.Fatalf("got (%d, %v), want (11, true)", v, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("Lookup hit not counted as a hit: %+v", st)
	}
}

// TestLookupRefreshesLRU: a Lookup hit must protect the entry from eviction
// the same way a Get hit does.
func TestLookupRefreshesLRU(t *testing.T) {
	c := New[int](2*numShards, 0) // two entries per shard
	// Three keys in the same shard; the third insert evicts that shard's LRU.
	a, b, x := Key{Lo: 0}, Key{Lo: numShards}, Key{Lo: 2 * numShards}
	c.Put(a, 1)
	c.Put(b, 2)
	if _, ok := c.Lookup(a); !ok { // a becomes MRU, b is now the LRU entry
		t.Fatal("freshly inserted entry missing")
	}
	c.Put(x, 3)
	if _, ok := c.Lookup(a); !ok {
		t.Fatal("Lookup did not refresh LRU position: a was evicted")
	}
	if _, ok := c.Lookup(b); ok {
		t.Fatal("eviction removed the wrong entry: b should be gone")
	}
}
