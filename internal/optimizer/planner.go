package optimizer

import (
	"fmt"
	"math"

	"dace/internal/plan"
	"dace/internal/schema"
	"dace/internal/workload"
)

// CostModel scores physical join candidates for the DP search: one
// predicted execution latency (ms, lower is better) per candidate root.
// Scores for the same batch must be comparable; the scorer may be called
// many times per query with heavily overlapping candidate subtrees, which
// is exactly the access pattern core.Scorer's subtree-fingerprint memo is
// built for (it satisfies this interface directly).
type CostModel interface {
	// AppendScoreCandidates appends one score per candidate to buf and
	// returns the extended slice. Candidates are never nil.
	AppendScoreCandidates(buf []float64, cands []*plan.Node) []float64
}

// Planner turns workload queries into physical plans with estimated
// cardinalities and cumulative estimated costs, Selinger-style: best access
// path per table, dynamic programming over join orders, cheapest physical
// join operator per edge.
type Planner struct {
	DB     *schema.Database
	Stats  *Stats
	Params CostParams

	// GatherThreshold is the estimated cost above which the planner inserts
	// a Gather node (parallel execution), as PostgreSQL does for expensive
	// plans. Set very high to disable.
	GatherThreshold float64

	// CostModel, when non-nil, chooses among the DP's physical join
	// candidates by learned score instead of classic cost (optimizer in the
	// loop). Classic cost still shapes the plan everywhere else: nodes keep
	// their classic EstCost (it is a model input feature, never overwritten),
	// access paths and aggregate placement stay cost-based, and the classic
	// cost prunes which candidates are scored at all (PruneFactor). Nil —
	// the default — is the pure classic planner.
	CostModel CostModel

	// PruneFactor bounds the learned search: only candidates whose classic
	// cost is within PruneFactor× of the cheapest candidate for that DP cell
	// are scored by the CostModel (the classic estimate is trusted as a
	// coarse pre-filter, as in learned-optimizer practice). <= 0 disables
	// pruning and scores every candidate. Ignored when CostModel is nil.
	PruneFactor float64
}

// New builds a planner with default PostgreSQL cost constants.
func New(db *schema.Database) *Planner {
	return &Planner{
		DB: db, Stats: NewStats(db), Params: DefaultCostParams(),
		GatherThreshold: 50_000, PruneFactor: 10,
	}
}

// candidate is a DP entry: a partial plan with its cumulative cost and
// estimated output cardinality.
type candidate struct {
	node *plan.Node
	rows float64
	cost float64
}

// Plan compiles q into a physical plan. The returned plan's nodes carry
// EstRows and EstCost (cumulative, PostgreSQL-style); ActualRows/ActualMS
// are zero until an executor labels them.
func (pl *Planner) Plan(q *workload.Query) (*plan.Plan, error) {
	if err := q.Validate(pl.DB); err != nil {
		return nil, err
	}
	// Best access path per table, aligned with q.Tables — index order is
	// the DP's table numbering, so planning never iterates a map (map
	// iteration order would make equal-cost tie-breaks nondeterministic).
	base := make([]candidate, len(q.Tables))
	for i, tn := range q.Tables {
		base[i] = pl.scan(tn, q.Filters[tn])
	}

	best := pl.joinDP(q, base)

	// Aggregation / limit decoration.
	root := best
	switch {
	case q.Aggregate && q.GroupBy != "":
		root = pl.groupAgg(q, root)
	case q.Aggregate:
		cost := root.cost + pl.Params.UnaryCost(plan.Aggregate, root.rows, 1)
		root = candidate{
			node: &plan.Node{Type: plan.Aggregate, EstRows: 1, EstCost: cost, Children: []*plan.Node{root.node}},
			rows: 1, cost: cost,
		}
	case q.Limit > 0:
		out := math.Min(float64(q.Limit), root.rows)
		cost := root.cost + pl.Params.UnaryCost(plan.Limit, root.rows, out)
		root = candidate{
			node: &plan.Node{Type: plan.Limit, EstRows: out, EstCost: cost,
				Meta: &plan.Meta{Limit: q.Limit}, Children: []*plan.Node{root.node}},
			rows: out, cost: cost,
		}
	}

	if root.cost > pl.GatherThreshold {
		// Parallel plan: the optimizer believes workers cut the cost.
		cost := root.cost*0.65 + pl.Params.UnaryCost(plan.Gather, root.rows, root.rows)
		root = candidate{
			node: &plan.Node{Type: plan.Gather, EstRows: root.rows, EstCost: cost, Children: []*plan.Node{root.node}},
			rows: root.rows, cost: cost,
		}
	}

	p := &plan.Plan{Database: pl.DB.Name, SQL: q.SQL(), Root: root.node}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: produced invalid plan: %w", err)
	}
	return p, nil
}

// scan picks the cheapest access path for one table.
func (pl *Planner) scan(tableName string, preds []plan.Predicate) candidate {
	t := pl.DB.Table(tableName)
	tableRows := pl.Stats.RowCount(t)
	sel := pl.Stats.ConjunctionSelectivity(t, preds)
	outRows := math.Max(1, tableRows*sel)
	meta := &plan.Meta{Table: tableName, Filters: preds}

	bestType := plan.SeqScan
	bestCost := pl.Params.ScanCost(plan.SeqScan, tableRows, outRows, len(preds))

	// Index paths require an index on the first filter column.
	if len(preds) > 0 && pl.Stats.HasIndex(t, preds[0].Column) {
		if c := pl.Params.ScanCost(plan.IndexScan, tableRows, outRows, len(preds)); c < bestCost {
			bestType, bestCost = plan.IndexScan, c
		}
		if c := pl.Params.ScanCost(plan.BitmapHeapScan, tableRows, outRows, len(preds)); c < bestCost {
			bestType, bestCost = plan.BitmapHeapScan, c
		}
		// Index-only when every predicate touches the same indexed column.
		sameCol := true
		for _, p := range preds[1:] {
			if p.Column != preds[0].Column {
				sameCol = false
			}
		}
		if sameCol {
			if c := pl.Params.ScanCost(plan.IndexOnlyScan, tableRows, outRows, len(preds)); c < bestCost {
				bestType, bestCost = plan.IndexOnlyScan, c
			}
		}
	}

	node := &plan.Node{Type: bestType, EstRows: outRows, EstCost: bestCost, Meta: meta}
	if bestType == plan.BitmapHeapScan {
		// PostgreSQL shape: Bitmap Heap Scan over a Bitmap Index Scan.
		idxCost := pl.Params.ScanCost(plan.BitmapIndexScan, tableRows, outRows, len(preds))
		node.Children = []*plan.Node{{
			Type: plan.BitmapIndexScan, EstRows: outRows, EstCost: idxCost,
			Meta: &plan.Meta{Table: tableName, Filters: preds},
		}}
		node.EstCost += idxCost
	}
	return candidate{node: node, rows: outRows, cost: node.EstCost}
}

// dpScratch holds joinDP's per-query buffers, reused across DP levels so
// candidate gathering and scoring allocate once per Plan call.
type dpScratch struct {
	cands  []candidate
	cells  []dpCell
	nodes  []*plan.Node
	scores []float64
}

// dpCell is one DP cell of the level being priced: its table subset, its
// candidates cands[lo:hi], the cheapest of them by classic cost, and the
// classic cost up to which a CostModel scores them.
type dpCell struct {
	mask          uint32
	lo, hi, cheap int
	limit         float64
}

// joinFacts is what every split joining via one foreign key shares: the
// join's selectivity and the Meta its join operators carry.
type joinFacts struct {
	ci, pi int
	sel    float64
	meta   *plan.Meta
}

// joinDP runs subset dynamic programming over left-deep and right-deep join
// orders, choosing the best physical operator per cell. A cell's candidates
// are gathered in the fixed enumeration order of q.Joins × split ×
// operator, and the cells of one subset size — a DP level, which reads only
// the winners of smaller levels — are priced together: by classic cost, or
// by pl.CostModel score in one call per level when the learned cost model
// is plugged in. Ties break toward the earlier candidate in enumeration
// order, so planning is deterministic run-to-run in either mode. base[i] is
// the access path for q.Tables[i].
func (pl *Planner) joinDP(q *workload.Query, base []candidate) candidate {
	n := len(q.Tables)
	idx := make(map[string]int, n)
	for i, t := range q.Tables {
		idx[t] = i
	}
	dp := make(map[uint32]candidate, 1<<n)
	for i, c := range base {
		dp[1<<i] = c
	}
	if n == 1 {
		return dp[1]
	}
	joins := make([]joinFacts, len(q.Joins))
	for i, fk := range q.Joins {
		joins[i] = joinFacts{
			ci: idx[fk.ChildTable], pi: idx[fk.ParentTable],
			sel: pl.Stats.JoinSelectivity(fk),
			meta: &plan.Meta{
				JoinLeft:  fk.ChildTable + "." + fk.ChildColumn,
				JoinRight: fk.ParentTable + "." + fk.ParentColumn,
			},
		}
	}

	var s dpScratch
	// Grow subsets one table at a time along FK edges.
	for size := 2; size <= n; size++ {
		s.cands, s.cells = s.cands[:0], s.cells[:0]
		for mask := uint32(1); mask < 1<<n; mask++ {
			if popcount(mask) != size {
				continue
			}
			lo := len(s.cands)
			for i, fk := range q.Joins {
				ci, pi := joins[i].ci, joins[i].pi
				if mask&(1<<ci) == 0 || mask&(1<<pi) == 0 {
					continue
				}
				// Try splitting off either endpoint as the single table.
				for _, single := range []int{ci, pi} {
					rest := mask &^ (1 << single)
					left, okL := dp[rest]
					right, okR := dp[uint32(1<<single)]
					if !okL || !okR || popcount(rest) != size-1 {
						continue
					}
					// The FK edge must connect the single table to the rest.
					other := pi
					if single == pi {
						other = ci
					}
					if rest&(1<<other) == 0 {
						continue
					}
					s.cands = pl.appendJoinCandidates(s.cands, fk, &joins[i], left, right)
				}
			}
			if len(s.cands) > lo {
				s.cells = append(s.cells, dpCell{mask: mask, lo: lo, hi: len(s.cands)})
			}
		}
		pl.chooseLevel(&s, dp)
	}
	full := uint32(1<<n) - 1
	c, ok := dp[full]
	if !ok {
		panic("optimizer: join DP found no plan for connected query")
	}
	return c
}

// chooseLevel enters the winner of every cell of s into dp. Classic mode
// takes a cell's strictly cheapest candidate (first in enumeration order on
// ties). With a CostModel, each cell's candidates within PruneFactor× of its
// cheapest classic cost are scored — the whole level in one call, cells in
// order — and the lowest score wins; score ties break to lower classic
// cost, then to enumeration order. The winner keeps its classic
// cost/EstCost either way: learned scores select plans, they never
// overwrite cost features.
func (pl *Planner) chooseLevel(s *dpScratch, dp map[uint32]candidate) {
	s.nodes = s.nodes[:0]
	for ci := range s.cells {
		cell := &s.cells[ci]
		cell.cheap = cell.lo
		for i := cell.lo + 1; i < cell.hi; i++ {
			if s.cands[i].cost < s.cands[cell.cheap].cost {
				cell.cheap = i
			}
		}
		if pl.CostModel == nil {
			dp[cell.mask] = s.cands[cell.cheap]
			continue
		}
		cell.limit = math.Inf(1)
		if pl.PruneFactor > 0 {
			cell.limit = s.cands[cell.cheap].cost * pl.PruneFactor
		}
		for i := cell.lo; i < cell.hi; i++ {
			if s.cands[i].cost <= cell.limit {
				s.nodes = append(s.nodes, s.cands[i].node)
			}
		}
	}
	if pl.CostModel == nil {
		return
	}
	s.scores = pl.CostModel.AppendScoreCandidates(s.scores[:0], s.nodes)
	j := 0
	for _, cell := range s.cells {
		best, bestScore := -1, 0.0
		for i := cell.lo; i < cell.hi; i++ {
			if s.cands[i].cost > cell.limit {
				continue
			}
			sc := s.scores[j]
			j++
			if best < 0 || sc < bestScore || (sc == bestScore && s.cands[i].cost < s.cands[best].cost) {
				best, bestScore = i, sc
			}
		}
		if best < 0 {
			// A PruneFactor below 1 can leave a cell nothing to score;
			// its classic winner stands.
			best = cell.cheap
		}
		dp[cell.mask] = s.cands[best]
	}
}

// appendJoinCandidates appends every physical join of left and right via fk
// — hash and nested-loop in both operand orders, merge — to dst, in fixed
// enumeration order. jf holds fk's selectivity and join Meta.
func (pl *Planner) appendJoinCandidates(dst []candidate, fk schema.ForeignKey, jf *joinFacts, left, right candidate) []candidate {
	outRows := math.Max(1, left.rows*right.rows*jf.sel)

	consider := func(c candidate) {
		dst = append(dst, c)
	}

	for _, ord := range [2][2]candidate{{left, right}, {right, left}} {
		outer, inner := ord[0], ord[1]

		// Hash join: build side wrapped in a Hash node (smaller side inner).
		hashCost := pl.Params.UnaryCost(plan.Hash, inner.rows, inner.rows)
		hashNode := &plan.Node{Type: plan.Hash, EstRows: inner.rows, EstCost: inner.cost + hashCost, Children: []*plan.Node{inner.node}}
		hjCost := outer.cost + hashNode.EstCost + pl.Params.JoinCost(plan.HashJoin, outer.rows, inner.rows, outRows)
		consider(candidate{
			node: &plan.Node{Type: plan.HashJoin, EstRows: outRows, EstCost: hjCost, Meta: jf.meta,
				Children: []*plan.Node{outer.node, hashNode}},
			rows: outRows, cost: hjCost,
		})

		// Nested loop: only competitive with a tiny outer; inner gets
		// materialized unless it is a bare scan.
		innerNode, innerCost := inner.node, inner.cost
		if len(inner.node.Children) > 0 {
			mc := pl.Params.UnaryCost(plan.Materialize, inner.rows, inner.rows)
			innerNode = &plan.Node{Type: plan.Materialize, EstRows: inner.rows, EstCost: inner.cost + mc, Children: []*plan.Node{inner.node}}
			innerCost = innerNode.EstCost
		}
		nlCost := outer.cost + innerCost + pl.Params.JoinCost(plan.NestedLoop, outer.rows, inner.rows, outRows)
		consider(candidate{
			node: &plan.Node{Type: plan.NestedLoop, EstRows: outRows, EstCost: nlCost, Meta: jf.meta,
				Children: []*plan.Node{outer.node, innerNode}},
			rows: outRows, cost: nlCost,
		})
	}

	// Merge join: sort both inputs.
	sortL := pl.Params.UnaryCost(plan.Sort, left.rows, left.rows)
	sortR := pl.Params.UnaryCost(plan.Sort, right.rows, right.rows)
	lNode := &plan.Node{Type: plan.Sort, EstRows: left.rows, EstCost: left.cost + sortL,
		Meta: &plan.Meta{SortCols: []string{fk.ChildColumn}}, Children: []*plan.Node{left.node}}
	rNode := &plan.Node{Type: plan.Sort, EstRows: right.rows, EstCost: right.cost + sortR,
		Meta: &plan.Meta{SortCols: []string{fk.ParentColumn}}, Children: []*plan.Node{right.node}}
	mjCost := lNode.EstCost + rNode.EstCost + pl.Params.JoinCost(plan.MergeJoin, left.rows, right.rows, outRows)
	consider(candidate{
		node: &plan.Node{Type: plan.MergeJoin, EstRows: outRows, EstCost: mjCost, Meta: jf.meta,
			Children: []*plan.Node{lNode, rNode}},
		rows: outRows, cost: mjCost,
	})

	return dst
}

// groupAgg builds Sort + GroupAggregate (or hashed Aggregate when cheaper)
// over the join result.
func (pl *Planner) groupAgg(q *workload.Query, in candidate) candidate {
	table, col := splitQualified(q.GroupBy)
	t := pl.DB.Table(table)
	groups := pl.Stats.GroupCount(t, t.Column(col), in.rows)

	sortCost := pl.Params.UnaryCost(plan.Sort, in.rows, in.rows)
	gaCost := in.cost + sortCost + pl.Params.UnaryCost(plan.GroupAggregate, in.rows, groups)

	// A hashed aggregate holds the group table in memory; it spills like a
	// hash build when the group table exceeds work_mem.
	hashAggCost := in.cost + pl.Params.UnaryCost(plan.Aggregate, in.rows, groups) +
		groups*pl.Params.CPUTupleCost + pl.Params.spillCost(groups)

	if hashAggCost < gaCost {
		return candidate{
			node: &plan.Node{Type: plan.Aggregate, EstRows: groups, EstCost: hashAggCost,
				Meta: &plan.Meta{GroupCols: []string{q.GroupBy}}, Children: []*plan.Node{in.node}},
			rows: groups, cost: hashAggCost,
		}
	}
	sortNode := &plan.Node{Type: plan.Sort, EstRows: in.rows, EstCost: in.cost + sortCost,
		Meta: &plan.Meta{SortCols: []string{q.GroupBy}}, Children: []*plan.Node{in.node}}
	return candidate{
		node: &plan.Node{Type: plan.GroupAggregate, EstRows: groups, EstCost: gaCost,
			Meta: &plan.Meta{GroupCols: []string{q.GroupBy}}, Children: []*plan.Node{sortNode}},
		rows: groups, cost: gaCost,
	}
}

func splitQualified(qc string) (table, col string) {
	for i := 0; i < len(qc); i++ {
		if qc[i] == '.' {
			return qc[:i], qc[i+1:]
		}
	}
	return qc, ""
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
