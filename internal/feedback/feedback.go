// Package feedback is the ingestion side of DACE's online-adaptation loop:
// a bounded, concurrency-safe replay buffer of observed
// (plan, actual latency) samples, plus an append-only CRC32-framed on-disk
// log so feedback survives process restarts. A plan is a plan.FlatPlan
// throughout: the arrays the request edge decoded are what the buffer copies,
// the log frames and a fine-tune featurizes — no tree is built on the way.
//
// The store deduplicates by plan fingerprint — an optimizer re-costs the
// same plans over and over, and a thousand copies of one plan teach the
// fine-tuner nothing — and degrades to uniform reservoir sampling once the
// capacity is reached, so the buffer stays an unbiased sample of the
// distinct plans observed since startup rather than a window over the most
// recent burst.
package feedback

import (
	"math"
	"math/rand"
	"sync"

	"dace/internal/plan"
)

// Sample is one observed execution: the plan as served (nodes may carry
// per-node actual_ms labels for deeper supervision) and the measured root
// latency. PredictedMS records what the serving model answered at ingest
// time, for drift bookkeeping; 0 means unknown. A Plan handed in (Store.Add,
// Log.Append, the Log.Replay callback) may alias a decoder and is read only
// during the call; one handed out by Store.Snapshot is the store's own copy,
// immutable, its root labelled with ActualMS.
type Sample struct {
	Plan        *plan.FlatPlan
	ActualMS    float64
	PredictedMS float64
}

// Store is the bounded replay buffer, safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	capacity int
	rng      *rand.Rand
	index    map[plan.Fingerprint]int // fingerprint → slot
	samples  []Sample                 // a slot's fingerprint is its plan's
	offered  int64                    // distinct fingerprints ever offered (reservoir clock)
	updated  uint64
	dropped  uint64
}

// Stats is a point-in-time snapshot of the store counters.
type Stats struct {
	Size     int    `json:"size"`
	Capacity int    `json:"capacity"`
	Offered  int64  `json:"offered"` // distinct plans ever offered
	Updated  uint64 `json:"updated"` // dedup refreshes of a resident plan
	Dropped  uint64 `json:"dropped"` // reservoir rejections after capacity
}

// NewStore builds a store holding at most capacity distinct plans.
// Reservoir replacement is driven by a seeded RNG so runs are reproducible.
func NewStore(capacity int, seed int64) *Store {
	if capacity < 1 {
		capacity = 1
	}
	return &Store{
		capacity: capacity,
		rng:      rand.New(rand.NewSource(seed)),
		index:    make(map[plan.Fingerprint]int, capacity),
	}
}

// Add offers a sample to the store and reports whether it is resident
// afterwards. A sample whose fingerprint is already present refreshes that
// slot (latest observation wins) without consuming a reservoir draw. Once
// the store is full, a new fingerprint replaces a uniformly random resident
// with probability capacity/offered — classic reservoir sampling over the
// distinct-plan stream. Samples without a root or a finite positive latency
// are rejected. Only a sample that stays is copied (a rejection allocates
// nothing), and a refreshed slot gets a new copy: a Snapshot reader's is
// never written.
func (s *Store) Add(smp Sample) bool {
	if smp.Plan == nil || smp.Plan.Len() == 0 || smp.Plan.Fingerprint.IsZero() ||
		!(smp.ActualMS > 0) || math.IsInf(smp.ActualMS, 1) {
		return false
	}
	fp := smp.Plan.Fingerprint
	s.mu.Lock()
	defer s.mu.Unlock()
	i, resident := s.index[fp]
	switch {
	case resident:
		s.updated++
	case len(s.samples) < s.capacity:
		s.offered++
		i = len(s.samples)
		s.samples = append(s.samples, Sample{})
	default:
		s.offered++
		j := s.rng.Int63n(s.offered)
		if j >= int64(s.capacity) {
			s.dropped++
			return false
		}
		i = int(j)
		delete(s.index, s.samples[i].Plan.Fingerprint)
	}
	s.index[fp] = i
	smp.Plan = smp.Plan.Clone()
	smp.Plan.ActualMS[0] = smp.ActualMS // the supervision a fine-tune reads
	s.samples[i] = smp
	return true
}

// Len returns the number of resident samples.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Snapshot returns a copy of the resident samples, safe to read while the
// store keeps ingesting. The Sample structs are copied; the plans they
// point at are shared and immutable.
func (s *Store) Snapshot() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, len(s.samples))
	copy(out, s.samples)
	return out
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Size:     len(s.samples),
		Capacity: s.capacity,
		Offered:  s.offered,
		Updated:  s.updated,
		Dropped:  s.dropped,
	}
}
