// Package gateway is DACE's horizontal scaling layer: an HTTP front that
// routes /predict and /predict/batch traffic across a fleet of daced
// replicas by consistent-hashing the plan fingerprint. Each replica
// therefore sees a stable shard of the fingerprint space, so its serving
// caches stay hot on exactly its shard — N replicas multiply cache capacity
// instead of diluting hit rates — and membership changes (ejection of an
// unhealthy replica, re-admission after recovery) remap only the keys the
// departed replica owned.
//
// The routing hot path reads, decodes and validates a request exactly as a
// replica does — through the request edge, internal/wire — so what comes
// back is a checked plan.FlatPlan (the gateway never holds a *plan.Node
// tree) with its fingerprint, and the plan is re-encoded to the
// compact binary wire format for the gateway→replica hop — the cheap
// encoding regardless of what the client spoke. The whole
// decode→route→re-encode path is allocation-free at steady state (guarded
// by tests).
package gateway

import (
	"sort"
	"sync/atomic"
)

// vnodes is the virtual-node count per replica. More vnodes smooth
// the load split (imbalance ~ 1/√vnodes per replica) at the cost of a
// slightly deeper binary search; 128 keeps the worst-case imbalance under
// ~10% for small fleets while the search stays ≤ 11 probes for 16 replicas.
const vnodes = 128

// ringPoint is one virtual node: a point on the 64-bit hash circle owned by
// a replica.
type ringPoint struct {
	hash uint64
	rep  *Replica
}

// ring is an immutable snapshot of the healthy membership's hash circle.
// The pool swaps whole snapshots through an atomic pointer on membership
// change, so lookups never take a lock and never observe a half-built ring.
type ring struct {
	points []ringPoint // sorted by hash
}

// fmix64 is the murmur3 64-bit finalizer — the same full-avalanche mix the
// fingerprint and cache-key hashes use.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

const ringGolden = 0x9e3779b97f4a7c15 // 2^64 / golden ratio

// replicaSeed hashes a replica's name to its base point. Points depend only
// on the name, never on the current membership — that independence is what
// makes the routing consistent: adding or removing a replica moves no other
// replica's points.
func replicaSeed(name string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	return fmix64(h)
}

// buildRing constructs the circle over the given replicas (the pool passes
// only healthy ones — an ejected replica is simply absent, so a lookup can
// never return it).
func buildRing(reps []*Replica) *ring {
	r := &ring{points: make([]ringPoint, 0, len(reps)*vnodes)}
	for _, rep := range reps {
		h := rep.seed
		for i := 0; i < vnodes; i++ {
			h = fmix64(h + ringGolden)
			r.points = append(r.points, ringPoint{hash: h, rep: rep})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// lookup returns the replica owning hash h: the one whose next point
// clockwise from h is nearest. Allocation-free — a binary search over the
// sorted points with wraparound.
func (r *ring) lookup(h uint64) *Replica {
	pts := r.points
	if len(pts) == 0 {
		return nil
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= h })
	if i == len(pts) {
		i = 0
	}
	return pts[i].rep
}

// ringHolder is the atomically swappable current ring.
type ringHolder struct{ p atomic.Pointer[ring] }

func (rh *ringHolder) load() *ring   { return rh.p.Load() }
func (rh *ringHolder) store(r *ring) { rh.p.Store(r) }
