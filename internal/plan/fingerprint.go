package plan

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Fingerprint is a 128-bit canonical hash of a plan tree — the cache key of
// the serving layer. Two plans that are structurally identical and carry the
// same model-visible features (node type, estimated cost, estimated and
// actual cardinality, in DFS order) hash to the same fingerprint, so a
// fingerprint hit may reuse a cached prediction verbatim: equal fingerprints
// imply bitwise-equal model inputs, hence bitwise-equal predictions.
//
// Fields the model never reads (Meta, SQL, Database, ActualMS) are excluded
// on purpose: plans that differ only there are the *same* costing problem
// and should share a cache entry.
type Fingerprint struct {
	Hi, Lo uint64
}

// String renders the fingerprint as 32 lowercase hex digits.
func (f Fingerprint) String() string { return fmt.Sprintf("%016x%016x", f.Hi, f.Lo) }

// IsZero reports whether f is the zero fingerprint (no plan hashes to it in
// practice; the serving layer uses it as the "absent" sentinel).
func (f Fingerprint) IsZero() bool { return f.Hi == 0 && f.Lo == 0 }

// fpState is the two-lane 128-bit hash accumulator. Each lane is a
// murmur3-style chain (xor/add the word, then a full 64-bit finalizer mix),
// seeded differently so the lanes are independent; position sensitivity
// comes from the chaining itself.
type fpState struct {
	hi, lo uint64
}

const (
	fpSeedHi = 0x9ae16a3b2f90404f // tail of CityHash's k-constants
	fpSeedLo = 0xc3a5c85c97cb3127
	fpMulLo  = 0x9e3779b97f4a7c15 // 2^64 / golden ratio
)

// fmix64 is the murmur3 64-bit finalizer: a full-avalanche bijection.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (s *fpState) word(w uint64) {
	s.hi = fmix64(s.hi ^ w)
	s.lo = fmix64(s.lo + bits.RotateLeft64(w, 32)*fpMulLo)
}

func (s *fpState) sum() Fingerprint {
	hi := fmix64(s.hi ^ bits.RotateLeft64(s.lo, 32))
	lo := fmix64(s.lo ^ s.hi)
	return Fingerprint{Hi: hi, Lo: lo}
}

// canonBits maps a float64 to canonical bits so that equal values hash
// equally: -0 collapses to +0 and every NaN payload to one quiet NaN. The
// features are hashed at full precision rather than rounded — merging
// nearly-equal costs would let a cache hit return a prediction computed from
// *different* model inputs, breaking the bitwise-reuse contract.
func canonBits(v float64) uint64 {
	if v == 0 {
		return 0
	}
	if math.IsNaN(v) {
		return 0x7ff8000000000001
	}
	return math.Float64bits(v)
}

// Fingerprint computes the plan's canonical 128-bit hash, allocation-free.
// The DFS pre-order stream of (node type, child count) pairs determines the
// tree shape uniquely — child counts are the prefix code that makes the
// flat sequence unambiguous, equivalent to hashing subtree sizes — and each
// node contributes its model-visible features in a fixed order. A nil root
// hashes to the zero Fingerprint.
func (p *Plan) Fingerprint() Fingerprint {
	if p == nil || p.Root == nil {
		return Fingerprint{}
	}
	st := fpState{hi: fpSeedHi, lo: fpSeedLo}
	fingerprintNode(&st, p.Root)
	return st.sum()
}

func fingerprintNode(st *fpState, n *Node) {
	st.word(uint64(uint32(n.Type))<<32 | uint64(uint32(len(n.Children))))
	st.word(canonBits(n.EstRows))
	st.word(canonBits(n.EstCost))
	// ActualRows is hashed because the DACE-A ablation (Config.ActualCardInput)
	// feeds it to the model; for ordinary serving traffic it is simply 0.
	st.word(canonBits(n.ActualRows))
	for _, c := range n.Children {
		fingerprintNode(st, c)
	}
}

// fpScratch is the pooled per-walk state of AppendSubtreeFingerprints: one
// open hash accumulator per node on the current DFS path.
type fpScratch struct {
	states []fpState
}

var fpScratchPool = sync.Pool{New: func() any { return new(fpScratch) }}

// AppendSubtreeFingerprints appends, for every node of the tree rooted at n
// in DFS pre-order, the Fingerprint of the sub-plan rooted there, and
// returns the extended slice. Element 0 — the root's subtree fingerprint —
// is identical to (&Plan{Root: n}).Fingerprint(), and every element i equals
// the standalone Fingerprint of the subtree at DFS position i: the subtree
// hash is the same seeded word chain, restricted to the subtree's DFS
// stream.
//
// All fingerprints are computed in a single DFS: the walk keeps one open
// accumulator per ancestor on the current path and feeds each visited
// node's words to all of them — each ancestor thereby consumes exactly its
// own subtree's DFS word stream, in stream order. That is O(n·depth) hash
// words instead of the O(n) of a root-only hash, the price of producing all
// n sub-plan cache keys at once. With spare capacity in buf the call is
// allocation-free at steady state (the walk scratch is pooled).
func (n *Node) AppendSubtreeFingerprints(buf []Fingerprint) []Fingerprint {
	if n == nil {
		return buf
	}
	s := fpScratchPool.Get().(*fpScratch)
	buf = s.walk(n, buf)
	s.states = s.states[:0]
	fpScratchPool.Put(s)
	return buf
}

// AppendSubtreeFingerprints appends the plan's per-node subtree
// fingerprints (DFS pre-order) to buf; the root entry equals
// p.Fingerprint(). A nil plan or root appends nothing.
func (p *Plan) AppendSubtreeFingerprints(buf []Fingerprint) []Fingerprint {
	if p == nil {
		return buf
	}
	return p.Root.AppendSubtreeFingerprints(buf)
}

func (s *fpScratch) walk(n *Node, buf []Fingerprint) []Fingerprint {
	pos := len(buf)
	buf = append(buf, Fingerprint{}) // reserve this node's DFS slot
	s.states = append(s.states, fpState{hi: fpSeedHi, lo: fpSeedLo})
	depth := len(s.states)
	words := [4]uint64{
		uint64(uint32(n.Type))<<32 | uint64(uint32(len(n.Children))),
		canonBits(n.EstRows),
		canonBits(n.EstCost),
		canonBits(n.ActualRows),
	}
	for i := range s.states {
		st := &s.states[i]
		st.word(words[0])
		st.word(words[1])
		st.word(words[2])
		st.word(words[3])
	}
	for _, c := range n.Children {
		buf = s.walk(c, buf)
	}
	buf[pos] = s.states[depth-1].sum()
	s.states = s.states[:depth-1]
	return buf
}
