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
//     its stored prediction is returned without touching the model. The
//     root is hashed in one walk over its subtree.
//   - On a miss, the candidate's encoding is assembled by splicing the
//     memoized feature blocks of its already-seen subtrees (descendants are
//     contiguous in DFS pre-order, so a cached subtree is one memcpy) and
//     featurizing only the genuinely new nodes; a subtree is hashed only
//     when the assembly walk reaches it, so a spliced operand's own
//     descendants are never hashed. The prediction is the one
//     inference forward with a single query row (forwardRaw's two halves) —
//     the same arithmetic as row 0 of the full pass. Attention runs per
//     miss; the MLP head, which is row-local, runs once per call over the
//     attention outputs of all of the call's misses, so a DP level's
//     candidates reach the row-blocked matrix kernels together.
//
// Correctness rests on two invariants, both enforced by tests: equal
// subtree fingerprints imply bitwise-equal model inputs (plan.Fingerprint's
// contract, which Node.SubtreeFingerprint extends to every subtree), and a
// node's prediction depends only on its own subtree (the tree-structured
// attention mask restricts row i to i's descendants, and every other stage
// is row-local). Scores are therefore bitwise-identical to running the
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
	types []int
	enc   featurize.Encoded

	// Per-call state: the misses whose head has not run yet — one attention
	// output row and one scaled root cost each — and the score slots that
	// wait on them.
	pending []pendingScore
	heads   []float64
	costs   []float64

	stats ScorerStats
}

// scoreEntry is one memoized subtree: its root prediction and the encoded
// feature block parents splice instead of re-featurizing the subtree.
type scoreEntry struct {
	ms    float64   // root prediction, milliseconds; unset while row > 0
	n     int32     // subtree node count (rows in x)
	row   int32     // 1 + the entry's row in the current call's head batch; 0 once scored
	x     []float64 // n×FeatureDim feature rows, DFS order
	types []int     // per-row node type (one-hot index)
}

// pendingScore is one score of the current call that waits for the head:
// buf[slot] takes the prediction of head row row. A miss has fp set, and the
// prediction completes its memo entry; a repeat of a candidate first seen
// earlier in the same call does not.
type pendingScore struct {
	slot, row int
	fp        plan.Fingerprint
	miss      bool
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

// AppendScoreCandidates appends one score per candidate to buf and returns
// the extended slice — the allocation-free variant for planners that
// recycle a score buffer. Candidates are looked up and assembled in order,
// exactly as if scored one call each (a candidate may splice, or repeat, an
// earlier one of the same call); only the head is deferred to the end.
func (s *Scorer) AppendScoreCandidates(buf []float64, cands []*plan.Node) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A candidate that cannot be featurized panics mid-call: the entries
	// still waiting for the head then leave the memo rather than answer a
	// later call with a score they never got.
	defer s.dropPending()
	s.heads, s.costs = s.heads[:0], s.costs[:0]
	for _, c := range cands {
		buf = append(buf, s.lookup(c, len(buf)))
	}
	if len(s.costs) == 0 {
		return buf
	}
	s.arena.Reset()
	h := nn.Matrix{Rows: len(s.costs), Cols: len(s.heads) / len(s.costs), Data: s.heads}
	pred, _ := s.m.headRaw(&s.arena, &h, s.costs, -1)
	for _, p := range s.pending {
		ms := s.m.Enc.InverseLabel(pred.Data[p.row])
		buf[p.slot] = ms
		if p.miss {
			e := s.memo[p.fp]
			e.ms, e.row = ms, 0
			s.memo[p.fp] = e
		}
	}
	s.pending = s.pending[:0]
	return buf
}

func (s *Scorer) dropPending() {
	for _, p := range s.pending {
		if p.miss {
			delete(s.memo, p.fp)
		}
	}
	s.pending = s.pending[:0]
}

// Score prices a single candidate sub-plan.
func (s *Scorer) Score(c *plan.Node) float64 {
	var score [1]float64
	return s.AppendScoreCandidates(score[:0], []*plan.Node{c})[0]
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

// lookup answers one candidate of a call under s.mu: its score when the
// memo has it, NaN for a nil candidate, and otherwise a placeholder for
// buf[slot] that AppendScoreCandidates fills once the head has run — after
// assembling the candidate, running its attention and entering its feature
// block into the memo, so that later candidates of the same call splice it.
func (s *Scorer) lookup(c *plan.Node, slot int) float64 {
	if c == nil {
		return math.NaN()
	}
	fp, n := c.SubtreeFingerprint()
	if e, ok := s.memo[fp]; ok {
		s.stats.Hits++
		if e.row > 0 {
			s.pending = append(s.pending, pendingScore{slot: slot, row: int(e.row) - 1})
		}
		return e.ms
	}
	s.stats.Misses++
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
	// Root-row attention over the assembled encoding: with one query row
	// attendRaw reads exactly the fields assembled here (X, Types), and the
	// head reads the root's scaled cost; the arithmetic is bitwise-identical
	// to row 0 of the full pass (the Predict ≡ PredictSubPlans[0] invariant).
	s.enc.X = x
	s.enc.CostCol = costCol
	s.enc.Types = types
	row := len(s.costs)
	s.heads = append(s.heads, s.m.attendRaw(&s.arena, &s.enc, 1).Data...)
	s.costs = append(s.costs, costCol.Data[0])
	s.pending = append(s.pending, pendingScore{slot: slot, row: row, fp: fp, miss: true})
	ex := s.memoFloats.Floats(n * featurize.FeatureDim)
	copy(ex, x.Data)
	et := s.memoInts.take(n)
	copy(et, types)
	s.memo[fp] = scoreEntry{n: int32(n), row: int32(row) + 1, x: ex, types: et}
	return 0
}

// assemble featurizes node — whose subtree the memo does not hold — into
// row i of the candidate encoding and writes its children's subtrees after
// it, returning the cursor past node's subtree. A child is hashed only
// here, when the walk reaches it: where its subtree fingerprint hits the
// memo, the whole subtree is one spliced block (descendants are the
// contiguous DFS block, so a hit is a straight copy); otherwise it is
// featurized the same way.
func (s *Scorer) assemble(node *plan.Node, i int, x, costCol *nn.Matrix, types []int) int {
	types[i] = int(node.Type)
	cost := s.m.Enc.EncodeNodeRow(x.Data[i*featurize.FeatureDim:(i+1)*featurize.FeatureDim], node)
	costCol.Data[i] = cost
	s.stats.NodesEncoded++
	i++
	for _, c := range node.Children {
		fp, _ := c.SubtreeFingerprint()
		e, ok := s.memo[fp]
		if !ok {
			i = s.assemble(c, i, x, costCol, types)
			continue
		}
		sz := int(e.n)
		copy(x.Data[i*featurize.FeatureDim:(i+sz)*featurize.FeatureDim], e.x)
		copy(types[i:i+sz], e.types)
		for j := 0; j < sz; j++ {
			costCol.Data[i+j] = e.x[j*featurize.FeatureDim+plan.NumNodeTypes]
		}
		s.stats.NodesCopied += uint64(sz)
		i += sz
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
