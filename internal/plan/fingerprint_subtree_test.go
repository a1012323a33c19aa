package plan

import (
	"bytes"
	"testing"
)

// TestSubtreeFingerprintsDifferential is the core contract: element i of
// AppendSubtreeFingerprints equals the standalone Fingerprint of a plan
// whose root is the node at DFS position i — for every node. The root case
// (i = 0) is the documented Fingerprint() equivalence.
func TestSubtreeFingerprintsDifferential(t *testing.T) {
	p := samplePlan()
	fps := p.AppendSubtreeFingerprints(nil)
	nodes := p.DFS()
	if len(fps) != len(nodes) {
		t.Fatalf("got %d fingerprints for %d nodes", len(fps), len(nodes))
	}
	if fps[0] != p.Fingerprint() {
		t.Fatalf("root subtree fingerprint %s != plan fingerprint %s", fps[0], p.Fingerprint())
	}
	for i, n := range nodes {
		want := (&Plan{Root: n}).Fingerprint()
		if fps[i] != want {
			t.Fatalf("node %d (%s): subtree fingerprint %s, standalone %s", i, n.Type, fps[i], want)
		}
	}
}

// TestSubtreeFingerprintsPerturbation: mutating one node must change the
// subtree fingerprints of that node and every ancestor, and no one else's.
func TestSubtreeFingerprintsPerturbation(t *testing.T) {
	p := samplePlan()
	base := p.AppendSubtreeFingerprints(nil)
	nodes := p.DFS()
	sizes := p.AppendSubtreeSizes(nil)
	// Mutate the deepest leaf (last DFS node).
	target := len(nodes) - 1
	mutated := clonePlan(p)
	mutated.DFS()[target].EstCost += 1
	got := mutated.AppendSubtreeFingerprints(nil)
	for i := range nodes {
		isAncestorOrSelf := i <= target && target < i+sizes[i]
		if isAncestorOrSelf && got[i] == base[i] {
			t.Errorf("node %d is an ancestor-or-self of the mutated node but its fingerprint is unchanged", i)
		}
		if !isAncestorOrSelf && got[i] != base[i] {
			t.Errorf("node %d is outside the mutated subtree path but its fingerprint changed", i)
		}
	}
}

// TestSubtreeFingerprintsSharedSubtree: equal subtrees at different
// positions, depths, and parents hash to equal subtree fingerprints — the
// property the scorer memo keys on.
func TestSubtreeFingerprintsSharedSubtree(t *testing.T) {
	scan := func() *Node { return &Node{Type: SeqScan, EstRows: 500, EstCost: 42.5} }
	// The same scan subtree under a join (depth 1) and under sort→join (depth 2).
	a := &Plan{Root: &Node{Type: HashJoin, EstRows: 10, EstCost: 100,
		Children: []*Node{scan(), {Type: Hash, EstRows: 3, EstCost: 9,
			Children: []*Node{{Type: IndexScan, EstRows: 3, EstCost: 7}}}}}}
	b := &Plan{Root: &Node{Type: Sort, EstRows: 10, EstCost: 400,
		Children: []*Node{{Type: NestedLoop, EstRows: 10, EstCost: 300,
			Children: []*Node{{Type: IndexScan, EstRows: 9, EstCost: 77}, scan()}}}}}
	fa := a.AppendSubtreeFingerprints(nil)
	fb := b.AppendSubtreeFingerprints(nil)
	// scan() is DFS position 1 in a, position 3 in b.
	if fa[1] != fb[3] {
		t.Fatalf("identical subtrees at different positions/depths hash differently: %s vs %s", fa[1], fb[3])
	}
	if fa[0] == fb[0] {
		t.Fatal("different roots must not collide")
	}
}

func TestSubtreeFingerprintsNil(t *testing.T) {
	var p *Plan
	if got := p.AppendSubtreeFingerprints(nil); len(got) != 0 {
		t.Fatalf("nil plan appended %d fingerprints", len(got))
	}
	if got := (&Plan{}).AppendSubtreeFingerprints(nil); len(got) != 0 {
		t.Fatalf("nil root appended %d fingerprints", len(got))
	}
	var n *Node
	if got := n.AppendSubtreeFingerprints(nil); len(got) != 0 {
		t.Fatalf("nil node appended %d fingerprints", len(got))
	}
}

func TestSubtreeFingerprintsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the walk scratch is pooled; the race detector drops pooled items")
	}
	p := samplePlan()
	buf := make([]Fingerprint, 0, 64)
	buf = p.AppendSubtreeFingerprints(buf[:0])
	if avg := testing.AllocsPerRun(200, func() {
		buf = p.AppendSubtreeFingerprints(buf[:0])
	}); avg != 0 {
		t.Fatalf("AppendSubtreeFingerprints allocates %.1f/op with spare capacity, want 0", avg)
	}
}

// FuzzSubtreeFingerprint re-checks the differential contract on arbitrary
// decoded plans (seed corpus shared with FuzzFingerprint): the root entry
// must equal Plan.Fingerprint and every entry must equal the standalone
// fingerprint of its subtree.
func FuzzSubtreeFingerprint(f *testing.F) {
	var seed bytes.Buffer
	samplePlan().WriteJSON(&seed)
	f.Add(seed.String())
	f.Add(`{"database":"d","root":{"type":0,"est_rows":10,"est_cost":3.5}}`)
	f.Add(`{"root":{"type":5,"est_rows":1,"est_cost":2,"children":[` +
		`{"type":0,"est_rows":4,"est_cost":1},{"type":1,"est_rows":9,"est_cost":8}]}}`)
	f.Add(`{"root":{"type":9,"est_rows":1e300,"est_cost":-0,"actual_rows":17,` +
		`"children":[{"type":15,"est_rows":0.001,"est_cost":42}]}}`)
	f.Fuzz(func(t *testing.T, doc string) {
		p, err := ReadJSON(bytes.NewReader([]byte(doc)))
		if err != nil || p.Root == nil {
			return
		}
		fps := p.AppendSubtreeFingerprints(nil)
		nodes := p.DFS()
		if len(fps) != len(nodes) {
			t.Fatalf("%d fingerprints for %d nodes", len(fps), len(nodes))
		}
		if fps[0] != p.Fingerprint() {
			t.Fatalf("root subtree fingerprint %s != plan fingerprint %s", fps[0], p.Fingerprint())
		}
		for i, n := range nodes {
			if want := (&Plan{Root: n}).Fingerprint(); fps[i] != want {
				t.Fatalf("node %d: subtree fingerprint %s, standalone %s", i, fps[i], want)
			}
		}
	})
}
