package core

import (
	"math"
	"sync"

	"dace/internal/featurize"
	"dace/internal/nn"
	"dace/internal/plan"
)

// Scorer is the optimizer-in-the-loop candidate-scoring engine: it prices
// sub-plan candidates with DACE fast enough to sit inside a Selinger DP
// join search. The DP emits thousands of candidate trees per query whose
// subtrees overlap almost entirely — every candidate's operands are prior
// DP entries — so the Scorer keeps a subtree-fingerprint-keyed memo of
// (encoded feature block, root prediction) pairs:
//
//   - A candidate whose root fingerprint is memoized is a pure cache hit:
//     its stored prediction is returned without touching the model.
//   - On a miss, the candidate's encoding is assembled by splicing the
//     memoized feature blocks of its already-seen subtrees (descendants are
//     contiguous in DFS pre-order, so a cached subtree is one memcpy) and
//     featurizing only the genuinely new nodes; the prediction then runs
//     the one inference forward with a single query row (forwardRaw) — the
//     same arithmetic as row 0 of the full pass.
//
// Correctness rests on two invariants, both enforced by tests: equal
// subtree fingerprints imply bitwise-equal model inputs (plan.Fingerprint's
// contract, extended per node by AppendSubtreeFingerprints), and a node's
// prediction depends only on its own subtree (the tree-structured attention
// mask restricts row i to i's descendants, and every other stage is
// row-local). Scores are therefore bitwise-identical to running the
// unmemoized per-candidate AppendPredictSubPlans and taking the root entry
// — regardless of hit pattern, candidate order, or interleaving.
//
// Memo storage is drawn from pooled arenas owned by the Scorer: Reset
// clears the memo and rewinds the arenas without freeing, so a planner that
// resets between queries (or keeps the memo warm across them) allocates
// nothing at steady state. A Scorer is safe for concurrent use (one mutex
// around the memo; scoring is deterministic either way). It is bound to
// the Model it was built with: swapping or fine-tuning the model's
// parameters invalidates every cached prediction, so build a fresh Scorer
// (fingerprints identify plans, not model versions).
type Scorer struct {
	mu sync.Mutex
	m  *Model

	memo       map[plan.Fingerprint]scoreEntry
	memoFloats nn.Arena // feature blocks of memo entries; rewound on Reset
	memoInts   intSlab  // type slices of memo entries; rewound on Reset

	// Per-candidate scratch, reset/reused every miss.
	arena nn.Arena
	fps   []plan.Fingerprint
	types []int
	enc   featurize.Encoded

	stats ScorerStats
}

// scoreEntry is one memoized subtree: its root prediction and the encoded
// feature block parents splice instead of re-featurizing the subtree.
type scoreEntry struct {
	ms    float64   // root prediction, milliseconds
	n     int32     // subtree node count (rows in x)
	x     []float64 // n×FeatureDim feature rows, DFS order
	types []int     // per-row node type (one-hot index)
}

// ScorerStats counts the scorer's work since construction (cumulative
// across Reset, so a bench can aggregate over many queries).
type ScorerStats struct {
	// Hits and Misses count scored candidates by root-fingerprint outcome.
	Hits, Misses uint64
	// NodesCopied and NodesEncoded split miss-path assembly work: rows
	// spliced from memoized subtree blocks vs rows featurized fresh.
	NodesCopied, NodesEncoded uint64
	// Entries is the current memo size.
	Entries int
}

// HitRate returns the fraction of scored candidates answered from the memo.
func (st ScorerStats) HitRate() float64 {
	if st.Hits+st.Misses == 0 {
		return 0
	}
	return float64(st.Hits) / float64(st.Hits+st.Misses)
}

// NewScorer builds a candidate scorer over a trained model.
func NewScorer(m *Model) *Scorer {
	if m.Enc == nil {
		panic("core: NewScorer on an untrained model")
	}
	return &Scorer{m: m, memo: make(map[plan.Fingerprint]scoreEntry)}
}

// Model returns the model the scorer prices candidates with.
func (s *Scorer) Model() *Model { return s.m }

// ScoreCandidates returns one predicted latency (ms) per candidate
// sub-plan root — DACE's estimate for executing that sub-plan, the
// quantity a DP join search compares. Results are bitwise-identical to
// m.AppendPredictSubPlans(nil, &plan.Plan{Root: cand})[0] per candidate.
// A nil candidate scores NaN.
func (s *Scorer) ScoreCandidates(cands []*plan.Node) []float64 {
	return s.AppendScoreCandidates(make([]float64, 0, len(cands)), cands)
}

// AppendScoreCandidates appends one score per candidate to buf and returns
// the extended slice — the allocation-free variant for planners that
// recycle a score buffer.
func (s *Scorer) AppendScoreCandidates(buf []float64, cands []*plan.Node) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range cands {
		buf = append(buf, s.score(c))
	}
	return buf
}

// Score prices a single candidate sub-plan.
func (s *Scorer) Score(c *plan.Node) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.score(c)
}

// Stats returns a snapshot of the scorer's cumulative counters.
func (s *Scorer) Stats() ScorerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.memo)
	return st
}

// Reset empties the memo and rewinds the backing arenas without freeing:
// the next fill reuses the same chunks, so a per-query Reset cycle reaches
// zero steady-state allocations once the arenas have grown to the working
// set. Counters are not reset.
func (s *Scorer) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.memo)
	s.memoFloats.Reset()
	s.memoInts.reset()
}

// score prices one candidate under s.mu.
func (s *Scorer) score(c *plan.Node) float64 {
	if c == nil {
		return math.NaN()
	}
	s.fps = c.AppendSubtreeFingerprints(s.fps[:0])
	if e, ok := s.memo[s.fps[0]]; ok {
		s.stats.Hits++
		return e.ms
	}
	s.stats.Misses++
	n := len(s.fps)
	s.arena.Reset()
	x := s.arena.Matrix(n, featurize.FeatureDim)
	costCol := s.arena.Matrix(n, 1)
	if cap(s.types) < n {
		s.types = make([]int, n)
	}
	types := s.types[:n]
	if end := s.assemble(c, 0, x, costCol, types); end != n {
		panic("core: scorer assembly cursor mismatch")
	}
	// Root-row inference over the assembled encoding: with one query row
	// forwardRaw reads exactly the fields assembled here (X, Types, CostCol)
	// and its arithmetic is bitwise-identical to row 0 of the full pass (the
	// Predict ≡ PredictSubPlans[0] invariant).
	s.enc.X = x
	s.enc.CostCol = costCol
	s.enc.Types = types
	pred, _ := s.m.forwardRaw(&s.arena, &s.enc, 1, -1)
	ms := s.m.Enc.InverseLabel(pred.Data[0])
	ex := s.memoFloats.Floats(n * featurize.FeatureDim)
	copy(ex, x.Data)
	et := s.memoInts.take(n)
	copy(et, types)
	s.memo[s.fps[0]] = scoreEntry{ms: ms, n: int32(n), x: ex, types: et}
	return ms
}

// assemble writes the subtree rooted at node into rows [i, …) of the
// candidate encoding, splicing memoized blocks where a subtree fingerprint
// hits (descendants are the contiguous DFS block, so a hit is a straight
// copy covering the whole subtree) and featurizing only memo-miss nodes.
// Returns the cursor past the subtree.
func (s *Scorer) assemble(node *plan.Node, i int, x, costCol *nn.Matrix, types []int) int {
	if e, ok := s.memo[s.fps[i]]; ok {
		sz := int(e.n)
		copy(x.Data[i*featurize.FeatureDim:(i+sz)*featurize.FeatureDim], e.x)
		copy(types[i:i+sz], e.types)
		for j := 0; j < sz; j++ {
			costCol.Data[i+j] = e.x[j*featurize.FeatureDim+plan.NumNodeTypes]
		}
		s.stats.NodesCopied += uint64(sz)
		return i + sz
	}
	types[i] = int(node.Type)
	cost := s.m.Enc.EncodeNodeRow(x.Data[i*featurize.FeatureDim:(i+1)*featurize.FeatureDim], node)
	costCol.Data[i] = cost
	s.stats.NodesEncoded++
	i++
	for _, c := range node.Children {
		i = s.assemble(c, i, x, costCol, types)
	}
	return i
}

// intSlab is a bump allocator for the memo's []int type slices: chunks are
// retained across reset, so steady-state fills allocate nothing. Returned
// slices are valid until reset and are always fully overwritten by the
// caller (reused memory is not re-zeroed).
type intSlab struct {
	chunks  [][]int
	ci, off int
}

const intSlabChunk = 1 << 12

func (s *intSlab) take(n int) []int {
	for {
		if s.ci < len(s.chunks) {
			if c := s.chunks[s.ci]; s.off+n <= len(c) {
				out := c[s.off : s.off+n : s.off+n]
				s.off += n
				return out
			}
			s.ci++
			s.off = 0
			continue
		}
		size := intSlabChunk
		if n > size {
			size = n
		}
		s.chunks = append(s.chunks, make([]int, size))
		s.off = 0
	}
}

func (s *intSlab) reset() { s.ci, s.off = 0, 0 }
