package plan

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// FlatPlan is a plan decoded straight into flat DFS pre-order arrays — the
// exact shape the featurizer consumes — without ever materializing a *Node
// tree. Index i of every slice describes the i-th node in DFS pre-order;
// Subtree[i] is the size of the subtree rooted there, so the attention span
// of node i is [i, i+Subtree[i]), and Heights[i] is its depth below the
// root (root = 0), mirroring Plan.AppendHeights.
//
// A FlatPlan produced by a Decoder aliases the decoder's arenas (and, for
// the database name, possibly the input buffer): it is valid only until the
// decoder's next Decode/DecodeBinary call, and only while the input bytes
// stay live. Clone it, or copy it into a FlatBatch, when it must outlive the
// decoder's next call; Tree() is the escape hatch for consumers that need nodes.
type FlatPlan struct {
	Types      []NodeType
	ChildCount []int32
	EstRows    []float64
	EstCost    []float64
	ActualRows []float64
	ActualMS   []float64
	Heights    []int32
	Subtree    []int32

	// Fingerprint is the canonical 128-bit hash, identical to what
	// Plan.Fingerprint computes for the equivalent tree. It is filled during
	// the decode, so a cache hit needs nothing beyond the parse itself.
	Fingerprint Fingerprint

	database []byte
	shape    []int32 // scratch stack for computeShape
}

// Len returns the node count.
func (f *FlatPlan) Len() int { return len(f.Types) }

// Database returns the plan's database of origin (possibly "").
func (f *FlatPlan) Database() string { return string(f.database) }

// reset truncates every arena, keeping capacity for reuse.
func (f *FlatPlan) reset() {
	f.Types = f.Types[:0]
	f.ChildCount = f.ChildCount[:0]
	f.EstRows = f.EstRows[:0]
	f.EstCost = f.EstCost[:0]
	f.ActualRows = f.ActualRows[:0]
	f.ActualMS = f.ActualMS[:0]
	f.Heights = f.Heights[:0]
	f.Subtree = f.Subtree[:0]
	f.Fingerprint = Fingerprint{}
	f.database = f.database[:0]
}

// appendNode appends one zero node to every arena and returns its index.
func (f *FlatPlan) appendNode() int {
	i := len(f.Types)
	f.Types = append(f.Types, 0)
	f.ChildCount = append(f.ChildCount, 0)
	f.EstRows = append(f.EstRows, 0)
	f.EstCost = append(f.EstCost, 0)
	f.ActualRows = append(f.ActualRows, 0)
	f.ActualMS = append(f.ActualMS, 0)
	f.Heights = append(f.Heights, 0)
	f.Subtree = append(f.Subtree, 0)
	return i
}

// FromTree refills f with the flat form of p in one DFS, reusing f's arrays,
// and returns f: the arrays, database and Fingerprint are exactly what a
// Decoder produces for p's JSON encoding, so Fingerprint equals
// p.Fingerprint(). It is the tree-side edge of the flat path (library
// callers holding a *Plan, pg EXPLAIN conversion). A nil child node panics,
// as it does in every tree traversal; no ingest path can hand it one (the
// JSON decoders never build a tree, pgexplain.Parse refuses a null node).
func (f *FlatPlan) FromTree(p *Plan) *FlatPlan {
	f.reset()
	f.database = append(f.database, p.Database...)
	if p.Root != nil {
		f.appendTree(p.Root, 0)
	}
	f.rehash()
	return f
}

// appendTree appends the subtree rooted at n (at the given height) in DFS
// pre-order and returns its size.
func (f *FlatPlan) appendTree(n *Node, height int32) int32 {
	i := f.appendNode()
	f.Types[i], f.ChildCount[i], f.Heights[i] = n.Type, int32(len(n.Children)), height
	f.EstRows[i], f.EstCost[i], f.ActualRows[i], f.ActualMS[i] = n.EstRows, n.EstCost, n.ActualRows, n.ActualMS
	size := int32(1)
	for _, c := range n.Children {
		size += f.appendTree(c, height+1)
	}
	f.Subtree[i] = size
	return size
}

// Clone returns a copy of f that owns its memory, for a consumer that keeps
// a decoded plan past the decoder's next call (the feedback replay buffer).
func (f *FlatPlan) Clone() *FlatPlan {
	c := *f
	c.Types, c.ChildCount = slices.Clone(f.Types), slices.Clone(f.ChildCount)
	c.EstRows, c.EstCost = slices.Clone(f.EstRows), slices.Clone(f.EstCost)
	c.ActualRows, c.ActualMS = slices.Clone(f.ActualRows), slices.Clone(f.ActualMS)
	c.Heights, c.Subtree = slices.Clone(f.Heights), slices.Clone(f.Subtree)
	c.database, c.shape = slices.Clone(f.database), nil
	return &c
}

// FlatBatch owns a sequence of flat plans: Append copies a plan's node
// arrays onto one concatenated set of arrays and records where it ends, so
// a batch decoded through a single reused Decoder costs memory proportional
// to the nodes actually decoded — never to a count the frame merely claims —
// and a Reset batch refills without allocating.
type FlatBatch struct {
	nodes FlatPlan      // every plan's node arrays, concatenated
	ends  []int         // plan i is nodes[ends[i-1]:ends[i]]
	fps   []Fingerprint // per-plan fingerprints
}

// Reset empties the batch, keeping capacity.
func (b *FlatBatch) Reset() {
	b.nodes.reset()
	b.ends, b.fps = b.ends[:0], b.fps[:0]
}

// Len returns the number of plans appended since the last Reset.
func (b *FlatBatch) Len() int { return len(b.ends) }

// Append copies f (node arrays and fingerprint; the database name is not
// kept) to the end of the batch.
func (b *FlatBatch) Append(f *FlatPlan) {
	n := &b.nodes
	n.Types = append(n.Types, f.Types...)
	n.ChildCount = append(n.ChildCount, f.ChildCount...)
	n.EstRows = append(n.EstRows, f.EstRows...)
	n.EstCost = append(n.EstCost, f.EstCost...)
	n.ActualRows = append(n.ActualRows, f.ActualRows...)
	n.ActualMS = append(n.ActualMS, f.ActualMS...)
	n.Heights = append(n.Heights, f.Heights...)
	n.Subtree = append(n.Subtree, f.Subtree...)
	b.ends = append(b.ends, len(n.Types))
	b.fps = append(b.fps, f.Fingerprint)
}

// At returns plan i as a view into the batch's arrays, valid until the next
// Reset (appending may move the arrays but never rewrites a finished plan).
func (b *FlatBatch) At(i int) FlatPlan {
	lo, hi := 0, b.ends[i]
	if i > 0 {
		lo = b.ends[i-1]
	}
	n := &b.nodes
	return FlatPlan{
		Types: n.Types[lo:hi:hi], ChildCount: n.ChildCount[lo:hi:hi],
		EstRows: n.EstRows[lo:hi:hi], EstCost: n.EstCost[lo:hi:hi],
		ActualRows: n.ActualRows[lo:hi:hi], ActualMS: n.ActualMS[lo:hi:hi],
		Heights: n.Heights[lo:hi:hi], Subtree: n.Subtree[lo:hi:hi],
		Fingerprint: b.fps[i],
	}
}

// rehash computes the canonical fingerprint from the flat arrays. The loop
// replays, word for word, the stream fingerprintNode emits for the
// equivalent tree: DFS pre-order is the storage order, so (type, child
// count) followed by the three hashed features per index is exactly the
// recursive traversal's schedule.
func (f *FlatPlan) rehash() {
	if len(f.Types) == 0 {
		f.Fingerprint = Fingerprint{}
		return
	}
	st := fpState{hi: fpSeedHi, lo: fpSeedLo}
	for i := range f.Types {
		st.word(uint64(uint32(f.Types[i]))<<32 | uint64(uint32(f.ChildCount[i])))
		st.word(canonBits(f.EstRows[i]))
		st.word(canonBits(f.EstCost[i]))
		st.word(canonBits(f.ActualRows[i]))
	}
	f.Fingerprint = st.sum()
}

// computeShape fills Heights and Subtree from ChildCount alone (the binary
// decode path, where spans are not discovered by recursion) and validates
// that the child counts describe exactly one well-formed tree.
func (f *FlatPlan) computeShape() error {
	n := len(f.Types)
	if n == 0 {
		return nil
	}
	// Backward pass: at position i the stack holds the subtree sizes of the
	// already-finished subtrees to i's right; i's children are the top
	// ChildCount[i] of them.
	stack := f.shape[:0]
	for i := n - 1; i >= 0; i-- {
		cc := int(f.ChildCount[i])
		if cc > len(stack) {
			return fmt.Errorf("plan: node %d claims %d children but only %d subtrees follow", i, cc, len(stack))
		}
		size := int32(1)
		for j := 0; j < cc; j++ {
			size += stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		}
		stack = append(stack, size)
		f.Subtree[i] = size
	}
	f.shape = stack[:0]
	if len(stack) != 1 {
		return fmt.Errorf("plan: child counts describe %d trees, want 1", len(stack))
	}
	// Forward pass: depth = number of ancestors still awaiting children.
	rem := f.shape[:0]
	for i := 0; i < n; i++ {
		for len(rem) > 0 && rem[len(rem)-1] == 0 {
			rem = rem[:len(rem)-1]
		}
		f.Heights[i] = int32(len(rem))
		if len(rem) > 0 {
			rem[len(rem)-1]--
		}
		if cc := f.ChildCount[i]; cc > 0 {
			rem = append(rem, cc)
		}
	}
	f.shape = rem[:0]
	return nil
}

// Check validates the plan for serving: it must be non-empty, every node
// type must be one of the NumNodeTypes operators (an out-of-range type
// would index past the one-hot block of the feature matrix), and every
// numeric feature must be finite (JSON cannot carry NaN/Inf, but the
// binary encoding's raw float64 bits can).
func (f *FlatPlan) Check() error {
	if f.Len() == 0 {
		return errors.New("plan has no root")
	}
	for i := range f.Types {
		if f.Types[i] < 0 || int(f.Types[i]) >= NumNodeTypes {
			return fmt.Errorf("plan node %d has unknown operator type %d", i, int(f.Types[i]))
		}
		for _, v := range [...]float64{f.EstRows[i], f.EstCost[i], f.ActualRows[i], f.ActualMS[i]} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("plan node %s has a non-finite feature", f.Types[i])
			}
		}
	}
	return nil
}

// Tree materializes the equivalent *Plan. All nodes come from one backing
// array (a single allocation besides the child slices). No inference path
// needs it — the model consumes flat plans — it serves tools that print or
// re-encode plans as trees. Meta and SQL do not exist in flat form and are
// left zero.
func (f *FlatPlan) Tree() *Plan {
	p := &Plan{Database: f.Database()}
	n := f.Len()
	if n == 0 {
		return p
	}
	nodes := make([]Node, n)
	type frame struct {
		idx int
		rem int32
	}
	stack := make([]frame, 0, 16)
	for i := 0; i < n; i++ {
		for len(stack) > 0 && stack[len(stack)-1].rem == 0 {
			stack = stack[:len(stack)-1]
		}
		nodes[i] = Node{
			Type:       f.Types[i],
			EstRows:    f.EstRows[i],
			EstCost:    f.EstCost[i],
			ActualRows: f.ActualRows[i],
			ActualMS:   f.ActualMS[i],
		}
		if len(stack) > 0 {
			top := &stack[len(stack)-1]
			nodes[top.idx].Children = append(nodes[top.idx].Children, &nodes[i])
			top.rem--
		}
		if cc := f.ChildCount[i]; cc > 0 {
			nodes[i].Children = make([]*Node, 0, cc)
			stack = append(stack, frame{idx: i, rem: cc})
		}
	}
	p.Root = &nodes[0]
	return p
}
