package plan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

// ReadJSON decodes a plan previously written by WriteJSON through
// encoding/json: the reference the streaming Decoder is checked against.
func ReadJSON(r io.Reader) (*Plan, error) {
	var p Plan
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("plan: decode: %w", err)
	}
	return &p, nil
}

// samplePlan builds:
//
//	Aggregate
//	└── Hash Join
//	    ├── Seq Scan (t1)
//	    └── Hash
//	        └── Seq Scan (t2)
func samplePlan() *Plan {
	return &Plan{
		Database: "testdb",
		Root: &Node{
			Type: Aggregate, EstRows: 1, EstCost: 500,
			Children: []*Node{{
				Type: HashJoin, EstRows: 100, EstCost: 450,
				Children: []*Node{
					{Type: SeqScan, EstRows: 1000, EstCost: 100, Meta: &Meta{Table: "t1"}},
					{Type: Hash, EstRows: 50, EstCost: 60,
						Children: []*Node{{Type: SeqScan, EstRows: 50, EstCost: 50, Meta: &Meta{Table: "t2"}}}},
				},
			}},
		},
	}
}

func TestDFSOrder(t *testing.T) {
	nodes := samplePlan().DFS()
	want := []NodeType{Aggregate, HashJoin, SeqScan, Hash, SeqScan}
	if len(nodes) != len(want) {
		t.Fatalf("DFS returned %d nodes, want %d", len(nodes), len(want))
	}
	for i, n := range nodes {
		if n.Type != want[i] {
			t.Errorf("DFS[%d] = %s, want %s", i, n.Type, want[i])
		}
	}
}

func TestHeights(t *testing.T) {
	got := samplePlan().Heights()
	want := []int{0, 1, 2, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Heights[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAdjacencyAncestorBlocks(t *testing.T) {
	a := samplePlan().Adjacency()
	want := [][]float64{
		{1, 1, 1, 1, 1}, // Aggregate dominates everything
		{0, 1, 1, 1, 1}, // HashJoin dominates both scans + Hash
		{0, 0, 1, 0, 0}, // left SeqScan only itself
		{0, 0, 0, 1, 1}, // Hash dominates right SeqScan
		{0, 0, 0, 0, 1},
	}
	for i := range want {
		for j := range want[i] {
			if a[i][j] != want[i][j] {
				t.Errorf("A[%d][%d] = %v, want %v", i, j, a[i][j], want[i][j])
			}
		}
	}
}

func TestDistances(t *testing.T) {
	d := samplePlan().Distances()
	if d[0][0] != 0 || d[0][4] != 3 || d[1][2] != 1 {
		t.Errorf("unexpected distances: %v", d)
	}
	if d[2][3] != -1 || d[4][0] != -1 {
		t.Errorf("non-ancestor pairs should be -1: %v", d)
	}
}

func TestValidateAcceptsGoodPlan(t *testing.T) {
	if err := samplePlan().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	cases := []struct {
		name string
		p    *Plan
	}{
		{"nil root", &Plan{}},
		{"scan with child", &Plan{Root: &Node{Type: SeqScan, EstRows: 1, EstCost: 1,
			Children: []*Node{{Type: SeqScan, EstRows: 1, EstCost: 1}}}}},
		{"join with one child", &Plan{Root: &Node{Type: HashJoin, EstRows: 1, EstCost: 1,
			Children: []*Node{{Type: SeqScan, EstRows: 1, EstCost: 1}}}}},
		{"unary with no child", &Plan{Root: &Node{Type: Sort, EstRows: 1, EstCost: 1}}},
		{"nonpositive estimate", &Plan{Root: &Node{Type: SeqScan, EstRows: 0, EstCost: 1}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid plan", c.name)
		}
	}
}

func TestNodeTypeStrings(t *testing.T) {
	if SeqScan.String() != "Seq Scan" || HashJoin.String() != "Hash Join" {
		t.Fatal("unexpected node type names")
	}
	if NodeType(99).String() != "NodeType(99)" {
		t.Fatal("out-of-range NodeType should degrade gracefully")
	}
	if !SeqScan.IsScan() || SeqScan.IsJoin() || !NestedLoop.IsJoin() || Sort.IsScan() {
		t.Fatal("IsScan/IsJoin misclassify")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := samplePlan()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Database != p.Database || q.NodeCount() != p.NodeCount() {
		t.Fatal("round trip lost structure")
	}
	if q.DFS()[2].Meta.Table != "t1" {
		t.Fatal("round trip lost meta")
	}
}

func TestReadJSONError(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{nope")); err == nil {
		t.Fatal("expected decode error")
	}
}

// randomTree builds a random valid plan with n in [1, 40] nodes.
func randomTree(rng *rand.Rand) *Plan {
	var build func(depth int) *Node
	build = func(depth int) *Node {
		leaf := depth > 4 || rng.Float64() < 0.35
		if leaf {
			return &Node{Type: SeqScan, EstRows: 1 + rng.Float64()*1000, EstCost: 1 + rng.Float64()*1000}
		}
		if rng.Float64() < 0.5 {
			return &Node{Type: HashJoin, EstRows: 1 + rng.Float64()*1000, EstCost: 1 + rng.Float64()*1000,
				Children: []*Node{build(depth + 1), build(depth + 1)}}
		}
		return &Node{Type: Sort, EstRows: 1 + rng.Float64()*1000, EstCost: 1 + rng.Float64()*1000,
			Children: []*Node{build(depth + 1)}}
	}
	return &Plan{Database: "rand", Root: build(0)}
}

// Property: the adjacency relation is a partial order (reflexive,
// antisymmetric, transitive) and every node's only height-0 ancestor is the
// root (DFS position 0).
func TestAdjacencyIsPartialOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomTree(rng)
		a := p.Adjacency()
		n := len(a)
		for i := 0; i < n; i++ {
			if a[i][i] != 1 { // reflexive
				return false
			}
			for j := 0; j < n; j++ {
				if i != j && a[i][j] == 1 && a[j][i] == 1 { // antisymmetric
					return false
				}
				for k := 0; k < n; k++ {
					if a[i][j] == 1 && a[j][k] == 1 && a[i][k] != 1 { // transitive
						return false
					}
				}
			}
			if a[0][i] != 1 { // root dominates everything
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: heights agree with the adjacency matrix — node j's height
// equals the number of strict ancestors it has.
func TestHeightsMatchAncestorCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomTree(rng)
		a := p.Adjacency()
		h := p.Heights()
		for j := range h {
			count := 0
			for i := range h {
				if i != j && a[i][j] == 1 {
					count++
				}
			}
			if count != h[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: random valid trees validate, and subtree blocks partition
// correctly (sum over children + 1 = size).
func TestRandomTreesValidate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomTree(rng)
		return p.Validate() == nil && p.NodeCount() == len(p.Heights())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
