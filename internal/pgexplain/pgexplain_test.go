package pgexplain

import (
	"bytes"
	"strings"
	"testing"

	"dace/internal/plan"
)

// fixture is a trimmed but structurally faithful PostgreSQL 14
// `EXPLAIN (ANALYZE, FORMAT JSON)` document for a two-table hash join with
// an aggregate on top.
const fixture = `[
  {
    "Plan": {
      "Node Type": "Aggregate",
      "Strategy": "Plain",
      "Startup Cost": 149261.70,
      "Total Cost": 149261.71,
      "Plan Rows": 1,
      "Plan Width": 8,
      "Actual Startup Time": 1431.889,
      "Actual Total Time": 1431.890,
      "Actual Rows": 1,
      "Actual Loops": 1,
      "Plans": [
        {
          "Node Type": "Hash Join",
          "Parent Relationship": "Outer",
          "Join Type": "Inner",
          "Hash Cond": "(mk.movie_id = t.id)",
          "Total Cost": 137690.19,
          "Plan Rows": 4628597,
          "Actual Total Time": 1118.152,
          "Actual Rows": 4523930,
          "Actual Loops": 1,
          "Plans": [
            {
              "Node Type": "Seq Scan",
              "Parent Relationship": "Outer",
              "Relation Name": "movie_keyword",
              "Alias": "mk",
              "Total Cost": 73601.97,
              "Plan Rows": 4628597,
              "Actual Total Time": 212.1,
              "Actual Rows": 4523930,
              "Actual Loops": 1
            },
            {
              "Node Type": "Hash",
              "Parent Relationship": "Inner",
              "Total Cost": 46180.31,
              "Plan Rows": 2528312,
              "Actual Total Time": 580.9,
              "Actual Rows": 2528312,
              "Actual Loops": 1,
              "Plans": [
                {
                  "Node Type": "Seq Scan",
                  "Relation Name": "title",
                  "Alias": "t",
                  "Filter": "(production_year > 2000)",
                  "Total Cost": 46180.31,
                  "Plan Rows": 2528312,
                  "Actual Total Time": 312.4,
                  "Actual Rows": 1243922,
                  "Actual Loops": 1
                }
              ]
            }
          ]
        }
      ]
    },
    "Planning Time": 0.52,
    "Execution Time": 1432.77
  }
]`

func TestParseFixture(t *testing.T) {
	p, err := Parse(strings.NewReader(fixture), "imdb")
	if err != nil {
		t.Fatal(err)
	}
	if p.Database != "imdb" {
		t.Fatalf("database %q", p.Database)
	}
	nodes := p.DFS()
	wantTypes := []plan.NodeType{plan.Aggregate, plan.HashJoin, plan.SeqScan, plan.Hash, plan.SeqScan}
	if len(nodes) != len(wantTypes) {
		t.Fatalf("got %d nodes, want %d", len(nodes), len(wantTypes))
	}
	for i, n := range nodes {
		if n.Type != wantTypes[i] {
			t.Fatalf("node %d is %s, want %s", i, n.Type, wantTypes[i])
		}
	}
	root := nodes[0]
	if root.EstCost != 149261.71 || root.EstRows != 1 {
		t.Fatalf("root estimates %v/%v", root.EstCost, root.EstRows)
	}
	if root.ActualMS != 1431.890 {
		t.Fatalf("root actual %v", root.ActualMS)
	}
	join := nodes[1]
	if join.Meta == nil || join.Meta.JoinLeft != "mk.movie_id" || join.Meta.JoinRight != "t.id" {
		t.Fatalf("join condition not parsed: %+v", join.Meta)
	}
	scan := nodes[2]
	if scan.Meta.Table != "movie_keyword" {
		t.Fatalf("scan relation %q", scan.Meta.Table)
	}
}

func TestParseLoopsMultiplyActuals(t *testing.T) {
	doc := `[{"Plan": {"Node Type": "Index Scan", "Relation Name": "t",
		"Total Cost": 8.3, "Plan Rows": 1,
		"Actual Total Time": 0.01, "Actual Rows": 1, "Actual Loops": 500}}]`
	p, err := Parse(strings.NewReader(doc), "db")
	if err != nil {
		t.Fatal(err)
	}
	n := p.Root
	if n.ActualMS != 0.01*500 || n.ActualRows != 500 {
		t.Fatalf("loops not folded in: ms=%v rows=%v", n.ActualMS, n.ActualRows)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("{"), "db"); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := Parse(strings.NewReader("[]"), "db"); err == nil {
		t.Fatal("expected empty-document error")
	}
	if _, err := Parse(strings.NewReader(`[{"Plan": {"Plans": []}}]`), "db"); err == nil {
		t.Fatal("expected missing node type error")
	}
	// A null node is an error, never a nil dereference.
	for _, doc := range []string{
		`[{"Plan": {"Node Type": "Hash Join", "Plans": [null]}}]`,
		`[{"Plan": null}]`,
	} {
		if _, err := Parse(strings.NewReader(doc), "db"); err == nil {
			t.Fatalf("%s: accepted", doc)
		}
	}
}

// FuzzParse: whatever bytes arrive as an EXPLAIN document, Parse returns a
// plan or an error — it never panics — and a plan it returns has a root that
// flattens without panicking: Check then passes or names what is wrong
// (Actual Time × Loops can overflow to +Inf, which only Check sees).
func FuzzParse(f *testing.F) {
	f.Add([]byte(fixture))
	f.Fuzz(func(t *testing.T, doc []byte) {
		p, err := Parse(bytes.NewReader(doc), "db")
		if err != nil {
			return
		}
		if p == nil || p.Root == nil {
			t.Fatal("nil error with no root")
		}
		var flat plan.FlatPlan
		_ = flat.FromTree(p).Check() // either verdict is fine; a panic is not
	})
}

func TestMapNodeTypeFallbacks(t *testing.T) {
	if got, ok := MapNodeType("Hash Join"); !ok || got != plan.HashJoin {
		t.Fatal("exact mapping broken")
	}
	if got, ok := MapNodeType("Partial HashAggregate"); !ok || got != plan.Aggregate {
		t.Fatalf("parallel-prefix mapping broken: %v %v", got, ok)
	}
	if got, ok := MapNodeType("Custom Scan"); ok || got != plan.Result {
		t.Fatal("unknown types must degrade to Result with ok=false")
	}
}

func TestParsedPlanIsPredictable(t *testing.T) {
	// The parsed plan must be consumable by the featurizer: estimates are
	// positive and the DFS/adjacency machinery works.
	p, err := Parse(strings.NewReader(fixture), "imdb")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range p.DFS() {
		if n.EstCost <= 0 || n.EstRows <= 0 {
			t.Fatalf("non-positive estimates after parse: %+v", n)
		}
	}
	adj := p.Adjacency()
	if len(adj) != p.NodeCount() {
		t.Fatal("adjacency broken on parsed plan")
	}
	heights := p.Heights()
	if heights[0] != 0 || heights[len(heights)-1] != 3 {
		t.Fatalf("heights wrong: %v", heights)
	}
}
