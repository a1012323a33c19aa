package nn

import (
	"fmt"
	"sync"
)

// Param is a trainable parameter: a value matrix plus a gradient accumulator
// of the same shape. Gradients accumulate across Backward calls until an
// optimizer clears them.
type Param struct {
	Name   string
	Value  *Matrix
	Grad   *Matrix
	Frozen bool // frozen params take no gradient and receive no optimizer update
}

// NewParam allocates a named rows×cols parameter initialized to zero.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, Value: NewMatrix(rows, cols), Grad: NewMatrix(rows, cols)}
}

// Clone returns an independent copy of p: same name, frozen flag, and a
// deep-copied value, with a fresh zero gradient. Training the clone never
// touches p — the contract online adaptation's clone-then-fine-tune
// relies on.
func (p *Param) Clone() *Param {
	return &Param{
		Name:   p.Name,
		Value:  p.Value.Clone(),
		Grad:   NewMatrix(p.Value.Rows, p.Value.Cols),
		Frozen: p.Frozen,
	}
}

// Node is a value in the autodiff graph. Nodes are created through Tape
// operations; Grad is populated during Tape.Backward, and is nil on a Const.
//
// NeedsGrad marks whether an adjoint should add into this node's Grad:
// Const nodes and parameter leaves have none, and matrix-product ops consult
// it to skip the expensive adjoint accumulations — this is what makes LoRA
// fine-tuning (frozen base weights) genuinely cheaper than full training.
// Interior nodes default to true. A trainable leaf's gradient is not formed
// by the backward walk at all: the walk records each adjoint that has the
// leaf as an operand (param), and the ordered pass (pass.go) runs them.
//
// The remaining fields are the recorded operation: back is a plain function
// pointer (never a closure, so replaying a reused tape allocates nothing)
// and the operand/attribute fields below carry what the adjoint needs. A
// node is owned by its tape and recycled on Reset — do not retain nodes, or
// the matrices they point at, across a Reset.
type Node struct {
	Value     *Matrix
	Grad      *Matrix
	NeedsGrad bool

	// param is set on a trainable parameter's Leaf.
	param *Param
	// live is set once the walk has cleared Grad, just before the first
	// adjoint that adds into it; fresh, only while n's own adjoint runs,
	// when operand a's gradient was cleared for it — still +0, so a sum
	// formed from +0 may go straight in.
	live, fresh bool
	// leaf is set on every parameter's Leaf, frozen or not: its value stays
	// as it is until the tape's next Reset, so its transpose is formed once
	// per cycle (transposeOf).
	leaf bool
	// formB, set by the ops whose operand b is usually a weight, forms rows
	// [r0, r0+len(dst)/cols) of b's share of this node's adjoint from +0 into
	// dst: the row-restricted adjoint the ordered pass runs for a parameter
	// in slot b instead of replaying back.
	formB func(n *Node, dst []float64, r0 int)

	back    func(t *Tape, n *Node)
	a, b, c *Node     // operands (c: LayerNorm bias)
	k       float64   // scalar attribute (Scale factor, softmax inverse scale, …)
	cm      *Matrix   // constant matrix attribute (mask, MulConst operand)
	aux     *Matrix   // op-private forward scratch kept for the adjoint
	auxF    []float64 // op-private float scratch (e.g. LayerNorm inverse stddevs)
	idx     []int     // SelectRows indices / ProjectOneHot row types
	parts   []*Node   // Concat operands
	spans   []Span    // masked-attention row spans
}

// Tape records operations in execution order so that Backward can replay
// their adjoints in reverse. Node structs and all interior matrices are
// allocated from the tape's arena and recycled by Reset, so a reused tape
// runs forward+backward with zero steady-state heap allocations. A Tape is
// single-use per forward pass and is not safe for concurrent use; concurrent
// training uses one tape per worker (GradPool), each holding the graphs of
// every minibatch item it ran until the ordered pass has read them.
type Tape struct {
	nodes []*Node // all ever-recorded nodes; nodes[:n] are live
	n     int
	used  int // nodes[:used] may hold references from before the last Reset
	arena *Arena
	// tmp holds an adjoint's temporaries — products before their one add,
	// an operand's transpose — and is rewound as each adjoint returns; the
	// one forward op that uses it (MatMulNodesTransB) rewinds it too.
	tmp Arena
	// pending are the parameter adjoints the backward walks since the last
	// Reset recorded, in the order they would have run.
	pending []deferred
	pass    *passer // Backward's one-item ordered pass, built on first use
}

// NewTape returns an empty tape backed by a fresh arena.
func NewTape() *Tape { return &Tape{arena: &Arena{tape: true}} }

// tapePool recycles tapes (nodes, arena and chunks attached) for transient
// single-plan passes (inference, baselines' predict paths).
var tapePool = sync.Pool{New: func() any { return NewTape() }}

// GetTape returns a reset tape from the global pool.
func GetTape() *Tape { return tapePool.Get().(*Tape) }

// PutTape resets t and returns it to the global pool. The caller must copy
// out any node values it still needs first (the arena memory is reused).
// Every node and record t held is cleared: an idle tape must not keep the
// parameters (and through them a whole dead model) its last graph named.
func PutTape(t *Tape) {
	t.Reset()
	for _, nd := range t.nodes[:t.used] {
		*nd = Node{}
	}
	t.used = 0
	clear(t.pending[:cap(t.pending)])
	if t.pass != nil {
		t.pass.release()
		t.pass = nil
	}
	tapePool.Put(t)
}

// Arena exposes the tape's arena, valid until the next Reset. Op adjoints
// use it for temporaries; callers may use it for per-pass scratch that
// should die with the tape.
func (t *Tape) Arena() *Arena { return t.arena }

// Reset discards all recorded nodes and parameter adjoints and rewinds the
// arena so the tape can be reused. Matrices previously returned by this
// tape's ops are invalid after Reset.
func (t *Tape) Reset() {
	t.used = max(t.used, t.n)
	t.n = 0
	t.pending = t.pending[:0]
	t.arena.Reset()
	t.tmp.Reset()
}

// alloc returns a cleared Node, recycling one recorded before the last
// Reset when available.
func (t *Tape) alloc() *Node {
	var nd *Node
	if t.n < len(t.nodes) {
		nd = t.nodes[t.n]
		*nd = Node{}
	} else {
		nd = &Node{}
		t.nodes = append(t.nodes, nd)
	}
	t.n++
	return nd
}

// node records a fresh interior node with a zeroed rows×cols value and
// gradient from the arena.
func (t *Tape) node(rows, cols int, back func(*Tape, *Node)) *Node {
	nd := t.assigned(rows, cols, back)
	clear(nd.Value.Data)
	return nd
}

// assigned is node for an op that assigns every element of the value before
// anything reads one (a copy, a gather, a concatenation): the value skips
// the arena's clear and holds whatever the last cycle left there until the
// op has filled it. The gradient is cleared by the backward walk, just
// before the first adjoint that adds into it (liven).
func (t *Tape) assigned(rows, cols int, back func(*Tape, *Node)) *Node {
	nd := t.alloc()
	nd.Value = t.arena.UninitMatrix(rows, cols)
	nd.Grad = t.arena.UninitMatrix(rows, cols)
	nd.NeedsGrad = true
	nd.back = back
	return nd
}

// unary records an interior node whose value starts as a copy of a.Value —
// the arena-backed replacement for the old Clone-then-mutate op pattern.
func (t *Tape) unary(a *Node, back func(*Tape, *Node)) *Node {
	nd := t.assigned(a.Value.Rows, a.Value.Cols, back)
	nd.a = a
	copy(nd.Value.Data, a.Value.Data)
	return nd
}

// Const introduces a matrix the graph treats as a constant: no gradient
// flows into it, so it has no gradient matrix — Grad is nil, and an adjoint
// that forgot to consult NeedsGrad dereferences it.
//
// Not inlined, for the reason ParallelFor is not: without its gradient it is
// small enough to be, and core's loss would grow by three copies of it.
//
//go:noinline
func (t *Tape) Const(m *Matrix) *Node {
	nd := t.alloc()
	nd.Value = m
	return nd
}

// Leaf introduces a parameter as a graph leaf. Like a Const it has no
// gradient matrix and NeedsGrad=false, so no adjoint writes into it; a
// trainable parameter's leaf is marked instead, and the backward walk
// records every adjoint it is an operand of for the ordered pass, which adds
// p's gradient into p.Grad. A frozen parameter's leaf is a plain constant.
func (t *Tape) Leaf(p *Param) *Node {
	nd := t.alloc()
	nd.Value = p.Value
	nd.leaf = true
	if !p.Frozen {
		nd.param = p
	}
	return nd
}

// transposeOf returns x's value transposed: a parameter's into the tape's
// arena once per cycle, shared by every node that reads it, any other
// operand's afresh, as a temporary of the running adjoint or op.
func (t *Tape) transposeOf(x *Node) *Matrix {
	if x.leaf {
		return t.arena.weightT(x.Value)
	}
	return t.tmp.transpose(x.Value)
}

// Backward seeds the gradient of the scalar output node with 1, propagates
// adjoints through the tape in reverse order and adds every trainable
// parameter's gradient into its Param.Grad: the one-item, one-worker case of
// GradPool.Accumulate. The output must be a 1×1 node produced by this tape.
func (t *Tape) Backward(out *Node) {
	lo := len(t.pending)
	t.backward(out, 0)
	if t.pass == nil {
		t.pass = &passer{}
	}
	// Each parameter is one whole-parameter block, taken in the order the
	// walk first met it.
	ps := t.pass
	ps.one[0] = item{t: t, lo: lo, hi: len(t.pending)}
	for j, d := range t.pending[lo:] {
		seen := false
		for _, e := range t.pending[lo : lo+j] {
			seen = seen || e.p == d.p
		}
		if !seen {
			ps.reserve(len(d.p.Value.Data))
			ps.formBlock(rowBlock{p: d.p, hi: d.p.Value.Rows}, ps.one[:])
		}
	}
}

// backward is the walk: it seeds out and runs the adjoints of nodes[from:]
// in reverse order, recording — not running — the share of each that
// belongs to a trainable parameter.
func (t *Tape) backward(out *Node, from int) {
	if out.Value.Rows != 1 || out.Value.Cols != 1 {
		panic(fmt.Sprintf("nn: Backward requires a scalar output, got %s", out.Value.shape()))
	}
	liven(out)
	out.Grad.Data[0] += 1
	for i := t.n - 1; i >= from; i-- {
		n := t.nodes[i]
		if n.back == nil {
			continue
		}
		liven(n) // no adjoint reached n: its gradient is zeros, as ever
		n.fresh = liven(n.a)
		liven(n.b)
		liven(n.c)
		for _, x := range n.parts {
			liven(x)
		}
		n.back(t, n)
		n.fresh = false
		t.tmp.Reset()
		t.deferParams(n)
	}
}

// liven clears x's gradient if x takes one and no adjoint has written it
// yet, and reports whether it did: interior gradients are cleared at their
// first write, not when the op records them.
func liven(x *Node) bool {
	if x == nil || !x.NeedsGrad || x.live {
		return false
	}
	clear(x.Grad.Data)
	x.live = true
	return true
}

// deferParams records one pending adjoint per distinct trainable parameter
// among n's operands.
func (t *Tape) deferParams(n *Node) {
	start := len(t.pending)
	add := func(x *Node) {
		if x == nil || x.param == nil {
			return
		}
		for _, d := range t.pending[start:] {
			if d.p == x.param {
				return
			}
		}
		t.pending = append(t.pending, deferred{n: n, p: x.param})
	}
	add(n.a)
	add(n.b)
	add(n.c)
	for _, x := range n.parts {
		add(x)
	}
}
