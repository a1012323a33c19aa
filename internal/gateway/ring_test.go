package gateway

import (
	"fmt"
	"testing"
)

func mkReplicas(n int) []*Replica {
	reps := make([]*Replica, n)
	for i := range reps {
		name := fmt.Sprintf("10.0.0.%d:8080", i+1)
		reps[i] = &Replica{Name: name, idx: i, seed: replicaSeed(name)}
		reps[i].healthy.Store(true)
	}
	return reps
}

// TestRingBalance: with 128 vnodes per replica, the key space splits close
// to evenly — no replica should own more than ~1.5x or less than ~0.5x its
// fair share.
func TestRingBalance(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		reps := mkReplicas(n)
		r := buildRing(reps)
		counts := make([]int, n)
		const keys = 200000
		h := uint64(12345)
		for i := 0; i < keys; i++ {
			h = fmix64(h + ringGolden)
			counts[r.lookup(h).idx]++
		}
		fair := float64(keys) / float64(n)
		for i, c := range counts {
			ratio := float64(c) / fair
			if ratio < 0.5 || ratio > 1.5 {
				t.Errorf("n=%d replica %d owns %.2fx its fair share", n, i, ratio)
			}
		}
	}
}

// TestRingStability: removing one replica must remap only the keys it
// owned; every other key keeps its owner. This is the property that keeps
// surviving replicas' caches hot through an ejection.
func TestRingStability(t *testing.T) {
	reps := mkReplicas(5)
	full := buildRing(reps)
	removed := reps[2]
	smaller := buildRing(append(append([]*Replica{}, reps[:2]...), reps[3:]...))

	h := uint64(999)
	moved, kept := 0, 0
	for i := 0; i < 100000; i++ {
		h = fmix64(h + 1)
		before := full.lookup(h)
		after := smaller.lookup(h)
		if after == removed {
			t.Fatalf("reduced ring routed key %x to the removed replica", h)
		}
		if before == removed {
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %x moved from %s to %s though %s was not removed",
				h, before.Name, after.Name, before.Name)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate split moved=%d kept=%d", moved, kept)
	}
}

// TestRingReaddStability: re-admitting a replica restores exactly the
// pre-ejection routing (points depend only on names).
func TestRingReaddStability(t *testing.T) {
	reps := mkReplicas(4)
	before := buildRing(reps)
	after := buildRing(reps)
	h := uint64(7)
	for i := 0; i < 10000; i++ {
		h = fmix64(h + 3)
		if before.lookup(h) != after.lookup(h) {
			t.Fatal("identical membership produced different routing")
		}
	}
}

func TestRingEmpty(t *testing.T) {
	if (&ring{}).lookup(42) != nil {
		t.Fatal("empty ring must route nowhere")
	}
	if buildRing(nil).lookup(42) != nil {
		t.Fatal("nil membership must route nowhere")
	}
}

// FuzzRing drives the two routing invariants with arbitrary membership and
// keys: (1) a ring never routes to a replica outside its membership, and
// (2) removing a member remaps only that member's keys.
func FuzzRing(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint64(12345))
	f.Add(uint8(1), uint8(0), uint64(0))
	f.Add(uint8(8), uint8(7), uint64(0xffffffffffffffff))
	f.Fuzz(func(t *testing.T, nReps, removeIdx uint8, key uint64) {
		n := int(nReps)%8 + 1
		reps := mkReplicas(n)
		full := buildRing(reps)

		owner := full.lookup(key)
		if owner == nil {
			t.Fatal("non-empty ring returned nil")
		}
		found := false
		for _, rep := range reps {
			if rep == owner {
				found = true
			}
		}
		if !found {
			t.Fatal("ring routed to a replica outside its membership")
		}

		ri := int(removeIdx) % n
		removed := reps[ri]
		rest := make([]*Replica, 0, n-1)
		for _, rep := range reps {
			if rep != removed {
				rest = append(rest, rep)
			}
		}
		smaller := buildRing(rest)
		after := smaller.lookup(key)
		if n == 1 {
			if after != nil {
				t.Fatal("empty ring after removal must route nowhere")
			}
			return
		}
		if after == removed {
			t.Fatal("reduced ring routed to the removed replica")
		}
		if owner != removed && after != owner {
			t.Fatalf("key %x changed owner %s -> %s though %s stayed",
				key, owner.Name, after.Name, owner.Name)
		}
	})
}
