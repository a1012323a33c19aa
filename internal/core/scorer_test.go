package core

import (
	"fmt"
	"math"
	"testing"

	"dace/internal/executor"
	"dace/internal/plan"
	"dace/internal/schema"
)

// scorerModel trains a small model for scorer tests (2 epochs — the scorer
// contract is bitwise arithmetic identity, not accuracy).
func scorerModel(t *testing.T, plans []*plan.Plan) *Model {
	t.Helper()
	cfg := smallConfig()
	cfg.Epochs = 2
	return Train(plans, cfg)
}

// dpCandidates turns workload plans into a DP-like candidate stream: every
// subtree of every plan, in DFS order. Exactly the overlap profile a
// Selinger enumeration produces — each candidate's operands appear earlier
// in the stream.
func dpCandidates(plans []*plan.Plan) []*plan.Node {
	var cands []*plan.Node
	for _, p := range plans {
		cands = append(cands, p.DFS()...)
	}
	return cands
}

// TestScorerBitwiseIdentity is the tentpole acceptance contract: every
// score out of the memoized path equals, bit for bit, the root entry of
// the unmemoized per-candidate AppendPredictSubPlans — on first sight
// (miss: spliced encoding + root-row kernels) and on every repeat (hit:
// stored prediction), across interleaved candidates from many plans.
func TestScorerBitwiseIdentity(t *testing.T) {
	plans := workloadPlans(t, schema.IMDB(), 40, executor.M1())
	m := scorerModel(t, plans)
	sc := NewScorer(m)
	cands := dpCandidates(plans)
	var buf []float64
	for pass := 0; pass < 2; pass++ { // pass 0 mixes hits+misses, pass 1 is all hits
		got := sc.AppendScoreCandidates(nil, cands)
		for i, c := range cands {
			buf = m.AppendPredictSubPlans(buf[:0], &plan.Plan{Root: c})
			if math.Float64bits(got[i]) != math.Float64bits(buf[0]) {
				t.Fatalf("pass %d candidate %d: memoized score %v != unmemoized root prediction %v",
					pass, i, got[i], buf[0])
			}
		}
	}
	st := sc.Stats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("degenerate memo traffic: %+v", st)
	}
	// The DP stream visits every subtree before its parents' rivals, so the
	// second pass (and every repeated subtree in the first) must hit.
	if st.Hits < st.Misses {
		t.Fatalf("expected hit-dominated traffic on overlapping candidates: %+v", st)
	}
	if st.NodesCopied == 0 {
		t.Fatalf("assembly never spliced a memoized block: %+v", st)
	}
}

// TestScorerSplicedAssembly forces the interesting miss path: score the
// leaves first, then their parents — the parent encodings must be
// assembled by splicing memoized child blocks (NodesCopied accounts for
// them) and still be bitwise-identical to the unmemoized path.
func TestScorerSplicedAssembly(t *testing.T) {
	plans := workloadPlans(t, schema.IMDB(), 20, executor.M1())
	m := scorerModel(t, plans)
	sc := NewScorer(m)
	// Deepest-first: children before parents, as in bottom-up DP.
	var bottomUp []*plan.Node
	for _, p := range plans {
		nodes := p.DFS()
		for i := len(nodes) - 1; i >= 0; i-- {
			bottomUp = append(bottomUp, nodes[i])
		}
	}
	got := sc.AppendScoreCandidates(nil, bottomUp)
	var buf []float64
	for i, c := range bottomUp {
		buf = m.AppendPredictSubPlans(buf[:0], &plan.Plan{Root: c})
		if math.Float64bits(got[i]) != math.Float64bits(buf[0]) {
			t.Fatalf("candidate %d: spliced-assembly score %v != unmemoized %v", i, got[i], buf[0])
		}
	}
	st := sc.Stats()
	if st.NodesCopied == 0 {
		t.Fatal("bottom-up candidate order must splice memoized child blocks")
	}
	if st.NodesEncoded >= st.NodesCopied {
		t.Fatalf("splicing should dominate fresh encoding bottom-up: %+v", st)
	}
}

// TestScorerBatchedHead pins the once-per-call head: whatever a call holds
// — a repeated candidate, a candidate and later its parent, nil candidates,
// one miss or enough of them to fill two row blocks and a remainder — every
// score is the flat path's root prediction bit for bit, and scores and
// counters are those of a scorer handed the same candidates one call each.
func TestScorerBatchedHead(t *testing.T) {
	plans := workloadPlans(t, schema.IMDB(), 12, executor.M1())
	m := scorerModel(t, plans)
	var roots []*plan.Node
	for _, p := range plans {
		roots = append(roots, p.Root)
	}
	parent := roots[0]
	if len(parent.Children) == 0 {
		t.Fatal("first plan is a single node")
	}
	child := parent.Children[len(parent.Children)-1]

	call := func(t *testing.T, cands []*plan.Node) ScorerStats {
		t.Helper()
		batched, single := NewScorer(m), NewScorer(m)
		got := batched.AppendScoreCandidates(nil, cands)
		if len(got) != len(cands) {
			t.Fatalf("%d scores for %d candidates", len(got), len(cands))
		}
		for i, c := range cands {
			one := single.Score(c)
			if c == nil {
				if !math.IsNaN(got[i]) || !math.IsNaN(one) {
					t.Fatalf("nil candidate %d scored %v in the call, %v alone; want NaN", i, got[i], one)
				}
				continue
			}
			want := m.AppendPredictSubPlansFlat(nil, new(plan.FlatPlan).FromTree(&plan.Plan{Root: c}))[0]
			if math.Float64bits(got[i]) != math.Float64bits(want) || math.Float64bits(one) != math.Float64bits(want) {
				t.Fatalf("candidate %d: %v in the call, %v alone, flat path %v", i, got[i], one, want)
			}
		}
		if b, s := batched.Stats(), single.Stats(); b != s {
			t.Fatalf("one call counted %+v, one call per candidate %+v", b, s)
		}
		// Nothing is left half-scored: a second call is all hits, same bits.
		again := batched.AppendScoreCandidates(nil, cands)
		for i := range got {
			if math.Float64bits(again[i]) != math.Float64bits(got[i]) {
				t.Fatalf("candidate %d: %v on the first call, %v on the second", i, got[i], again[i])
			}
		}
		return single.Stats()
	}

	t.Run("same candidate twice", func(t *testing.T) {
		if st := call(t, []*plan.Node{parent, child, parent, child}); st.Misses != 2 || st.Hits != 2 {
			t.Fatalf("%+v, want 2 misses and 2 hits", st)
		}
	})
	t.Run("parent after child", func(t *testing.T) {
		st := call(t, []*plan.Node{child, parent})
		if want := uint64(len((&plan.Plan{Root: child}).DFS())); st.NodesCopied != want {
			t.Fatalf("parent spliced %d rows of a child scored earlier in the call, want %d", st.NodesCopied, want)
		}
	})
	t.Run("nil candidates", func(t *testing.T) {
		if st := call(t, []*plan.Node{nil, parent, nil}); st.Misses != 1 || st.Hits != 0 {
			t.Fatalf("%+v, want 1 miss", st)
		}
		call(t, []*plan.Node{nil})
		call(t, nil)
	})
	for _, n := range []int{1, 4, 5, 9} {
		t.Run(fmt.Sprintf("%d misses", n), func(t *testing.T) {
			if st := call(t, roots[:n]); st.Misses != uint64(n) {
				t.Fatalf("%+v, want %d misses", st, n)
			}
		})
	}
}

// TestScorerPanicLeavesNoHalfScoredEntry: a candidate that cannot be
// featurized panics out of the call; the candidates assembled before it must
// not stay in the memo without a score.
func TestScorerPanicLeavesNoHalfScoredEntry(t *testing.T) {
	plans := workloadPlans(t, schema.IMDB(), 4, executor.M1())
	m := scorerModel(t, plans)
	sc := NewScorer(m)
	bad := &plan.Node{Type: plan.NodeType(plan.NumNodeTypes + 3), EstRows: 1, EstCost: 1}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("an out-of-range node type was featurized")
			}
		}()
		sc.AppendScoreCandidates(nil, []*plan.Node{plans[0].Root, bad})
	}()
	want := m.AppendPredictSubPlansFlat(nil, new(plan.FlatPlan).FromTree(plans[0]))[0]
	if got := sc.Score(plans[0].Root); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("after a panicked call the first candidate scores %v, want %v", got, want)
	}
}

// TestScorerEqualFingerprintEqualPrediction is the memo's keying contract
// (mirror of the root-fingerprint suite): any two subtrees with equal
// subtree fingerprints — across plans, positions, and depths — get
// bitwise-equal sub-plan predictions from the full unmemoized pass.
func TestScorerEqualFingerprintEqualPrediction(t *testing.T) {
	plans := workloadPlans(t, schema.IMDB(), 40, executor.M1())
	// Guarantee cross-plan duplicates at different depths: graft one plan's
	// root under two different parents.
	shared := plans[0].Root
	plans = append(plans,
		&plan.Plan{Root: &plan.Node{Type: plan.Sort, EstRows: 10, EstCost: 99,
			Children: []*plan.Node{shared}}},
		&plan.Plan{Root: &plan.Node{Type: plan.NestedLoop, EstRows: 5, EstCost: 123,
			Children: []*plan.Node{{Type: plan.IndexScan, EstRows: 7, EstCost: 3}, shared}}},
	)
	m := scorerModel(t, plans[:40])
	seen := make(map[plan.Fingerprint]uint64)
	dups := 0
	var preds []float64
	var fps []plan.Fingerprint
	for _, p := range plans {
		preds = m.AppendPredictSubPlans(preds[:0], p)
		fps = p.AppendSubtreeFingerprints(fps[:0])
		for i, fp := range fps {
			bits := math.Float64bits(preds[i])
			if prev, ok := seen[fp]; ok {
				dups++
				if prev != bits {
					t.Fatalf("equal subtree fingerprints %s with different predictions: %x vs %x", fp, prev, bits)
				}
				continue
			}
			seen[fp] = bits
		}
	}
	if dups == 0 {
		t.Fatal("workload produced no duplicate subtree fingerprints; test is vacuous")
	}
}

// TestScorerResetAndNil covers the lifecycle edges: nil candidates score
// NaN without touching the memo, and Reset empties the memo so the next
// scores are misses again (with unchanged values).
func TestScorerResetAndNil(t *testing.T) {
	plans := workloadPlans(t, schema.IMDB(), 10, executor.M1())
	m := scorerModel(t, plans)
	sc := NewScorer(m)
	if v := sc.Score(nil); !math.IsNaN(v) {
		t.Fatalf("nil candidate scored %v, want NaN", v)
	}
	first := sc.AppendScoreCandidates(nil, dpCandidates(plans))
	before := sc.Stats()
	if before.Entries == 0 {
		t.Fatal("no memo entries after scoring")
	}
	sc.Reset()
	if st := sc.Stats(); st.Entries != 0 {
		t.Fatalf("Reset left %d memo entries", st.Entries)
	}
	second := sc.AppendScoreCandidates(nil, dpCandidates(plans))
	after := sc.Stats()
	if after.Misses <= before.Misses {
		t.Fatal("post-Reset scoring should miss again")
	}
	for i := range first {
		if math.Float64bits(first[i]) != math.Float64bits(second[i]) {
			t.Fatalf("candidate %d: score changed across Reset: %v vs %v", i, first[i], second[i])
		}
	}
}

// TestScorerConcurrent exercises the mutex path under the race detector:
// concurrent scorers of overlapping candidates must agree with the serial
// unmemoized result.
func TestScorerConcurrent(t *testing.T) {
	plans := workloadPlans(t, schema.IMDB(), 12, executor.M1())
	m := scorerModel(t, plans)
	sc := NewScorer(m)
	cands := dpCandidates(plans)
	want := make([]float64, len(cands))
	var buf []float64
	for i, c := range cands {
		buf = m.AppendPredictSubPlans(buf[:0], &plan.Plan{Root: c})
		want[i] = buf[0]
	}
	const workers = 4
	results := make([][]float64, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			results[w] = sc.AppendScoreCandidates(nil, cands)
			done <- w
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	for w := 0; w < workers; w++ {
		for i := range cands {
			if math.Float64bits(results[w][i]) != math.Float64bits(want[i]) {
				t.Fatalf("worker %d candidate %d: %v != %v", w, i, results[w][i], want[i])
			}
		}
	}
}

// TestScorerSteadyStateAllocs is the tentpole's AllocsPerRun guard, both
// regimes: the all-hit path (warm memo) must be allocation-free, and the
// per-query Reset cycle (miss-heavy but arena-recycled) must be too once
// the arenas and map buckets have grown to the working set.
func TestScorerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	plans := workloadPlans(t, schema.IMDB(), 20, executor.M1())
	m := scorerModel(t, plans)
	sc := NewScorer(m)
	cands := dpCandidates(plans)
	buf := make([]float64, 0, len(cands))
	buf = sc.AppendScoreCandidates(buf[:0], cands) // warm: populate memo + grow scratch
	if avg := testing.AllocsPerRun(100, func() {
		buf = sc.AppendScoreCandidates(buf[:0], cands)
	}); avg != 0 {
		t.Fatalf("all-hit AppendScoreCandidates allocates %.2f/op at steady state, want 0", avg)
	}
	sc.Reset()
	buf = sc.AppendScoreCandidates(buf[:0], cands) // re-grow after first Reset
	if avg := testing.AllocsPerRun(50, func() {
		sc.Reset()
		buf = sc.AppendScoreCandidates(buf[:0], cands)
	}); avg != 0 {
		t.Fatalf("Reset+rescore cycle allocates %.2f/op at steady state, want 0", avg)
	}
}

// TestAppendPredictSubPlansBatch pins the pooled batch variant to
// PredictSubPlansBatch bitwise and checks the recycling contract: reused
// dst elements are refilled in place and extra trailing elements are
// sliced off.
func TestAppendPredictSubPlansBatch(t *testing.T) {
	plans := workloadPlans(t, schema.IMDB(), 24, executor.M1())
	m := scorerModel(t, plans)
	want := m.PredictSubPlansBatch(plans, 4)
	var dst [][]float64
	for round := 0; round < 3; round++ {
		dst = m.AppendPredictSubPlansBatch(dst, plans, 4)
		if len(dst) != len(plans) {
			t.Fatalf("round %d: got %d result slices for %d plans", round, len(dst), len(plans))
		}
		for i := range plans {
			if len(dst[i]) != len(want[i]) {
				t.Fatalf("round %d plan %d: %d predictions, want %d", round, i, len(dst[i]), len(want[i]))
			}
			for j := range want[i] {
				if math.Float64bits(dst[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("round %d plan %d node %d: %v != %v", round, i, j, dst[i][j], want[i][j])
				}
			}
		}
	}
	short := m.AppendPredictSubPlansBatch(dst, plans[:5], 2)
	if len(short) != 5 {
		t.Fatalf("shrinking batch kept %d slices, want 5", len(short))
	}
}
