// Package pgexplain ingests real PostgreSQL EXPLAIN output, so the
// estimator can be used against an actual database rather than the
// simulated substrate: feed it `EXPLAIN (ANALYZE, FORMAT JSON) <query>` and
// get back a plan.Plan carrying exactly the features DACE consumes
// (operator type, estimated rows, estimated cost) plus per-sub-plan actual
// latencies when ANALYZE was used (training labels).
//
// Only the fields DACE needs are read; everything else in the EXPLAIN
// document is ignored, so the parser is robust across PostgreSQL versions.
package pgexplain

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"dace/internal/plan"
)

// explainDoc is the top-level EXPLAIN (FORMAT JSON) array element.
type explainDoc struct {
	Plan          *explainNode `json:"Plan"`
	ExecutionTime float64      `json:"Execution Time"`
}

// explainNode mirrors the node fields DACE consumes.
type explainNode struct {
	NodeType        string         `json:"Node Type"`
	ParentRelation  string         `json:"Parent Relationship"`
	TotalCost       float64        `json:"Total Cost"`
	PlanRows        float64        `json:"Plan Rows"`
	ActualTotalTime float64        `json:"Actual Total Time"` // per loop, ms
	ActualRows      float64        `json:"Actual Rows"`       // per loop
	ActualLoops     float64        `json:"Actual Loops"`
	RelationName    string         `json:"Relation Name"`
	Filter          string         `json:"Filter"`
	HashCond        string         `json:"Hash Cond"`
	MergeCond       string         `json:"Merge Cond"`
	SortKey         []string       `json:"Sort Key"`
	GroupKey        []string       `json:"Group Key"`
	Strategy        string         `json:"Strategy"` // Aggregate: Plain/Sorted/Hashed
	Plans           []*explainNode `json:"Plans"`
}

// nodeTypes maps PostgreSQL "Node Type" strings onto the 16 operator types.
// Operators outside the paper's vocabulary degrade to the nearest analogue
// rather than failing, so arbitrary real plans remain scorable.
var nodeTypes = map[string]plan.NodeType{
	"Seq Scan":              plan.SeqScan,
	"Index Scan":            plan.IndexScan,
	"Index Only Scan":       plan.IndexOnlyScan,
	"Bitmap Heap Scan":      plan.BitmapHeapScan,
	"Bitmap Index Scan":     plan.BitmapIndexScan,
	"Nested Loop":           plan.NestedLoop,
	"Hash Join":             plan.HashJoin,
	"Merge Join":            plan.MergeJoin,
	"Hash":                  plan.Hash,
	"Sort":                  plan.Sort,
	"Incremental Sort":      plan.Sort,
	"Aggregate":             plan.Aggregate,
	"GroupAggregate":        plan.GroupAggregate,
	"HashAggregate":         plan.Aggregate,
	"WindowAgg":             plan.Aggregate,
	"Materialize":           plan.Materialize,
	"Memoize":               plan.Materialize,
	"Gather":                plan.Gather,
	"Gather Merge":          plan.Gather,
	"Limit":                 plan.Limit,
	"Result":                plan.Result,
	"Append":                plan.Result,
	"Merge Append":          plan.Result,
	"Unique":                plan.Aggregate,
	"CTE Scan":              plan.SeqScan,
	"Subquery Scan":         plan.SeqScan,
	"Function Scan":         plan.SeqScan,
	"Values Scan":           plan.Result,
	"Foreign Scan":          plan.SeqScan,
	"Tid Scan":              plan.IndexScan,
	"Sample Scan":           plan.SeqScan,
	"WorkTable Scan":        plan.SeqScan,
	"Recursive Union":       plan.Result,
	"SetOp":                 plan.Aggregate,
	"LockRows":              plan.Result,
	"ProjectSet":            plan.Result,
	"Hash Setop":            plan.Aggregate,
	"Group":                 plan.GroupAggregate,
	"BitmapAnd":             plan.BitmapIndexScan,
	"BitmapOr":              plan.BitmapIndexScan,
	"Nested Loop Semi Join": plan.NestedLoop,
	"Nested Loop Anti Join": plan.NestedLoop,
}

// MapNodeType resolves a PostgreSQL node-type string, reporting whether it
// was an exact/known mapping.
func MapNodeType(s string) (plan.NodeType, bool) {
	if t, ok := nodeTypes[s]; ok {
		return t, true
	}
	// Aggregate strategies sometimes arrive as "Aggregate" + Strategy, or
	// "Partial/Finalize" prefixes in parallel plans.
	trimmed := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(s, "Partial "), "Finalize "))
	if t, ok := nodeTypes[trimmed]; ok {
		return t, true
	}
	return plan.Result, false
}

// Parse reads one EXPLAIN (FORMAT JSON) document — the JSON array
// PostgreSQL prints — and converts its first plan into a plan.Plan.
// database names the plan's origin (it only matters for bookkeeping).
func Parse(r io.Reader, database string) (*plan.Plan, error) {
	var docs []explainDoc
	if err := json.NewDecoder(r).Decode(&docs); err != nil {
		return nil, fmt.Errorf("pgexplain: decode: %w", err)
	}
	if len(docs) == 0 || docs[0].Plan == nil {
		return nil, fmt.Errorf("pgexplain: document contains no plan")
	}
	root, err := convert(docs[0].Plan)
	if err != nil {
		return nil, err
	}
	p := &plan.Plan{Database: database, Root: root}
	return p, nil
}

// convert maps one EXPLAIN node (and its subtree) to a plan.Node.
func convert(e *explainNode) (*plan.Node, error) {
	if e == nil {
		return nil, fmt.Errorf("pgexplain: null plan node")
	}
	if e.NodeType == "" {
		return nil, fmt.Errorf("pgexplain: node without a Node Type")
	}
	t, _ := MapNodeType(e.NodeType)
	loops := e.ActualLoops
	if loops <= 0 {
		loops = 1
	}
	n := &plan.Node{
		Type:       t,
		EstRows:    maxf(1, e.PlanRows),
		EstCost:    maxf(1e-3, e.TotalCost),
		ActualRows: e.ActualRows * loops,
		ActualMS:   e.ActualTotalTime * loops,
	}
	if e.RelationName != "" || e.HashCond != "" || e.MergeCond != "" || len(e.SortKey) > 0 || len(e.GroupKey) > 0 {
		n.Meta = &plan.Meta{Table: e.RelationName, SortCols: e.SortKey, GroupCols: e.GroupKey}
		if cond := firstNonEmpty(e.HashCond, e.MergeCond); cond != "" {
			if l, r, ok := splitEquiJoin(cond); ok {
				n.Meta.JoinLeft, n.Meta.JoinRight = l, r
			}
		}
	}
	for _, c := range e.Plans {
		child, err := convert(c)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, child)
	}
	// Note: real plans can have shapes the simulator's strict
	// plan.(*Plan).Validate rejects (InitPlans, parallel aggregates, …).
	// That is fine — prediction and featurization work on any tree; Validate
	// only guards plans the simulated optimizer emits.
	return n, nil
}

// splitEquiJoin parses "(a.x = b.y)" into its two sides.
func splitEquiJoin(cond string) (left, right string, ok bool) {
	c := strings.Trim(strings.TrimSpace(cond), "()")
	parts := strings.SplitN(c, " = ", 2)
	if len(parts) != 2 {
		return "", "", false
	}
	return strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), true
}

func firstNonEmpty(ss ...string) string {
	for _, s := range ss {
		if s != "" {
			return s
		}
	}
	return ""
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
