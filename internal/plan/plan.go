// Package plan models physical query plans: the operator trees a DBMS
// optimizer emits (and EXPLAIN ANALYZE annotates) and the structural
// artifacts DACE extracts from them — the DFS node sequence, the
// ancestor/descendant adjacency matrix A(p) of the plan's partial order,
// and per-node heights H(p).
package plan

import (
	"encoding/json"
	"fmt"
	"io"
)

// NodeType identifies the physical operator of a plan node. The set matches
// the 16 operator types the paper one-hot encodes.
type NodeType int

// The 16 physical operator types.
const (
	SeqScan NodeType = iota
	IndexScan
	IndexOnlyScan
	BitmapHeapScan
	BitmapIndexScan
	NestedLoop
	HashJoin
	MergeJoin
	Hash
	Sort
	Aggregate
	GroupAggregate
	Materialize
	Gather
	Limit
	Result

	// NumNodeTypes is the size of the node-type one-hot encoding.
	NumNodeTypes = 16
)

var nodeTypeNames = [NumNodeTypes]string{
	"Seq Scan", "Index Scan", "Index Only Scan", "Bitmap Heap Scan",
	"Bitmap Index Scan", "Nested Loop", "Hash Join", "Merge Join",
	"Hash", "Sort", "Aggregate", "GroupAggregate",
	"Materialize", "Gather", "Limit", "Result",
}

// String returns the PostgreSQL-style operator name.
func (t NodeType) String() string {
	if t < 0 || int(t) >= NumNodeTypes {
		return fmt.Sprintf("NodeType(%d)", int(t))
	}
	return nodeTypeNames[t]
}

// IsScan reports whether the operator reads a base table.
func (t NodeType) IsScan() bool {
	switch t {
	case SeqScan, IndexScan, IndexOnlyScan, BitmapHeapScan, BitmapIndexScan:
		return true
	}
	return false
}

// IsJoin reports whether the operator combines two inputs.
func (t NodeType) IsJoin() bool {
	switch t {
	case NestedLoop, HashJoin, MergeJoin:
		return true
	}
	return false
}

// Predicate is a simple column comparison, the only predicate form the
// workload generator emits (mirroring the MSCN/Zero-Shot benchmarks).
type Predicate struct {
	Column string  `json:"column"`
	Op     string  `json:"op"` // one of = < > <= >=
	Value  float64 `json:"value"`
}

// Meta carries the optimizer-side provenance of a node: which table it
// scans, which predicates it applies, which join condition it evaluates.
// DACE never reads Meta (it learns only from estimates); the simulated
// executor and the data-characteristic baselines (MSCN, TPool, Zero-Shot) do.
type Meta struct {
	Table     string      `json:"table,omitempty"`
	Filters   []Predicate `json:"filters,omitempty"`
	JoinLeft  string      `json:"join_left,omitempty"`  // qualified column, e.g. "title.id"
	JoinRight string      `json:"join_right,omitempty"` // qualified column
	SortCols  []string    `json:"sort_cols,omitempty"`
	GroupCols []string    `json:"group_cols,omitempty"`
	Limit     int         `json:"limit,omitempty"`
	TrueSel   float64     `json:"-"` // cached by the true-cardinality oracle
}

// Node is one operator in a physical plan tree. EstRows and EstCost are the
// optimizer's estimates (model inputs); ActualRows and ActualMS are filled
// by the executor (training labels). ActualMS is the *inclusive* sub-plan
// latency, as EXPLAIN ANALYZE reports.
type Node struct {
	Type       NodeType `json:"type"`
	EstRows    float64  `json:"est_rows"`
	EstCost    float64  `json:"est_cost"`
	ActualRows float64  `json:"actual_rows"`
	ActualMS   float64  `json:"actual_ms"`
	Children   []*Node  `json:"children,omitempty"`
	Meta       *Meta    `json:"meta,omitempty"`
}

// Plan is a rooted operator tree plus its database of origin.
type Plan struct {
	Database string `json:"database"`
	SQL      string `json:"sql,omitempty"`
	Root     *Node  `json:"root"`
}

// DFS returns the plan's nodes in depth-first pre-order (root first,
// children left to right) — the node sequence the information catcher feeds
// to the encoder.
func (p *Plan) DFS() []*Node { return p.AppendDFS(nil) }

// AppendDFS appends the DFS pre-order node sequence to buf and returns the
// extended slice — the allocation-free variant of DFS for hot inference
// paths that reuse a scratch buffer.
func (p *Plan) AppendDFS(buf []*Node) []*Node {
	var walk func(n *Node)
	walk = func(n *Node) {
		buf = append(buf, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	if p.Root != nil {
		walk(p.Root)
	}
	return buf
}

// NodeCount returns the number of operators in the plan.
func (p *Plan) NodeCount() int { return len(p.DFS()) }

// Heights returns, for each node in DFS order, its height: the length of
// the (unique, hence shortest) path from the node to the root. The root has
// height 0.
func (p *Plan) Heights() []int { return p.AppendHeights(nil) }

// AppendHeights appends the per-node heights (DFS order) to buf and returns
// the extended slice.
func (p *Plan) AppendHeights(buf []int) []int {
	var walk func(n *Node, h int)
	walk = func(n *Node, h int) {
		buf = append(buf, h)
		for _, c := range n.Children {
			walk(c, h+1)
		}
	}
	if p.Root != nil {
		walk(p.Root, 0)
	}
	return buf
}

// Adjacency returns the n×n ancestor matrix A(p) over the DFS order:
// A[i][j] = 1 iff node_i ⪯ node_j in the plan's partial order, i.e. node_i
// is node_j itself or an ancestor of node_j (reflexive-transitive closure of
// the parent relation). Used as DACE's tree-structured attention mask: row i
// may attend only to i's own sub-plan.
func (p *Plan) Adjacency() [][]float64 {
	nodes := p.DFS()
	n := len(nodes)
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	// In DFS pre-order, the descendants of node i are exactly the contiguous
	// block of nodes (i, i+subtreeSize(i)).
	sizes := subtreeSizes(p)
	for i := 0; i < n; i++ {
		for j := i; j < i+sizes[i]; j++ {
			a[i][j] = 1
		}
	}
	return a
}

// subtreeSizes returns, for each DFS position, the size of the subtree
// rooted there (including itself).
func subtreeSizes(p *Plan) []int { return p.AppendSubtreeSizes(nil) }

// AppendSubtreeSizes appends, for each DFS position, the size of the
// subtree rooted there (including itself) to buf and returns the extended
// slice. Because descendants are contiguous in DFS pre-order, row i of the
// ancestor matrix is exactly the span [i, i+size_i) — which is how the
// attention kernels represent the tree mask without materializing it.
func (p *Plan) AppendSubtreeSizes(buf []int) []int {
	var walk func(n *Node) int
	walk = func(n *Node) int {
		pos := len(buf)
		buf = append(buf, 0)
		size := 1
		for _, c := range n.Children {
			size += walk(c)
		}
		buf[pos] = size
		return size
	}
	if p.Root != nil {
		walk(p.Root)
	}
	return buf
}

// Distances returns the n×n matrix of tree distances d(i,j) = steps from
// ancestor i down to descendant j, or -1 where i is not an ancestor-or-self
// of j. QueryFormer's learnable tree bias is indexed by this distance.
func (p *Plan) Distances() [][]int {
	heights := p.Heights()
	adj := p.Adjacency()
	n := len(heights)
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			if adj[i][j] != 0 {
				d[i][j] = heights[j] - heights[i]
			} else {
				d[i][j] = -1
			}
		}
	}
	return d
}

// Validate checks structural invariants: non-nil root, joins have two
// children, scans are leaves, unary operators have one child, and every
// estimate is positive.
func (p *Plan) Validate() error {
	if p.Root == nil {
		return fmt.Errorf("plan: nil root")
	}
	var check func(n *Node) error
	check = func(n *Node) error {
		switch {
		case n.Type == BitmapHeapScan && (len(n.Children) != 1 || n.Children[0].Type != BitmapIndexScan):
			return fmt.Errorf("plan: Bitmap Heap Scan must have exactly one Bitmap Index Scan child")
		case n.Type == BitmapHeapScan:
			// PostgreSQL shape validated above.
		case n.Type.IsScan() && len(n.Children) != 0:
			return fmt.Errorf("plan: %s has %d children, want 0", n.Type, len(n.Children))
		case n.Type.IsJoin() && len(n.Children) != 2:
			return fmt.Errorf("plan: %s has %d children, want 2", n.Type, len(n.Children))
		case !n.Type.IsScan() && !n.Type.IsJoin() && len(n.Children) != 1:
			return fmt.Errorf("plan: unary %s has %d children, want 1", n.Type, len(n.Children))
		}
		if n.EstRows <= 0 || n.EstCost <= 0 {
			return fmt.Errorf("plan: %s has non-positive estimates (rows=%g cost=%g)", n.Type, n.EstRows, n.EstCost)
		}
		for _, c := range n.Children {
			if err := check(c); err != nil {
				return err
			}
		}
		return nil
	}
	return check(p.Root)
}

// WriteJSON encodes the plan (EXPLAIN-like) to w.
func (p *Plan) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}
