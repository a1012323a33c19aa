package nn

import "sync"

// The ordered parameter-gradient pass. A minibatch's backward walks run in
// parallel, one tape per worker, but none of them writes a parameter
// gradient: every adjoint with a trainable Leaf as an operand is recorded on
// the tape instead (Tape.deferParams). Once every walk is done, the
// parameters' rows are cut into blocks, and each block is one worker's: it
// walks the minibatch's items in order, sums each item's share of the block
// from +0 in a scratch small enough for L1, and adds that sum into
// Param.Grad. Per gradient element that is
//
//	grad = ((grad + s₀) + s₁) + …,   sᵢ = ((+0 + c₁) + c₂) + …
//
// with item i's contributions cₖ in the order its walk met them — the same
// association whatever the worker count, so the gradient is bitwise the
// same for one worker or many, and the same as one tape per item adding
// into a private buffer and a fixed-order reduction of those buffers.

// deferred is one recorded parameter adjoint: p's share of node n's.
type deferred struct {
	n *Node
	p *Param
}

// item is one minibatch loss: the tape its graph is on, its recorded
// parameter adjoints (pending[lo:hi] of that tape) and its loss value.
type item struct {
	t      *Tape
	lo, hi int
	loss   float64
}

// rowBlock is rows [lo, hi) of a trainable parameter, index pi in the
// parameter list it was cut from: the unit of work of the ordered pass and
// of Adam.Step.
type rowBlock struct {
	p      *Param
	pi     int
	lo, hi int
}

// blockFloats bounds a row block: its running sum and one temporary stay in
// L1 beside the activations they are formed from.
const blockFloats = 2048

// rowBlocks cuts every trainable parameter of params into blocks of whole
// rows of at most blockFloats floats (one row when a row is longer).
func rowBlocks(params []*Param) []rowBlock {
	var bs []rowBlock
	for pi, p := range params {
		if p.Frozen {
			continue
		}
		step := max(1, blockFloats/max(1, p.Value.Cols))
		for lo := 0; lo < p.Value.Rows; lo += step {
			bs = append(bs, rowBlock{p: p, pi: pi, lo: lo, hi: min(lo+step, p.Value.Rows)})
		}
	}
	return bs
}

// passer is one worker's ordered-pass state: a block's running item sum,
// a temporary of the same size, and what a replayed adjoint runs on — a
// tape whose arena it draws from and stand-ins for the node and its
// operands. A passer is used by one goroutine at a time.
type passer struct {
	sum, tmp []float64
	tape     *Tape
	node     Node
	leaf     Node
	stand    [3]Node
	parts    []*Node
	partBuf  []Node
	one      [1]item
}

// replayTapes recycles the passers' replay tapes. They are not tapePool's:
// a replay tape records no node, and from the shared pool it would come
// back out as the next fit's training tape, which would then grow every
// node afresh (≈ 100 KB a fit).
var replayTapes = sync.Pool{New: func() any { return NewTape() }}

// reserve makes sum and tmp hold at least n floats, borrowing from the
// chunk pools.
func (ps *passer) reserve(n int) {
	if min(cap(ps.sum), cap(ps.tmp)) >= n {
		return
	}
	if ps.sum != nil {
		putChunk(ps.sum)
		putChunk(ps.tmp)
	}
	ps.sum, ps.tmp = newChunk(n)[:n], newChunk(n)[:n]
}

// release hands the passer's chunks, its replay tape's included, back to
// the pools it borrowed them from, and the tape to replayTapes.
func (ps *passer) release() {
	if ps.sum != nil {
		putChunk(ps.sum)
		putChunk(ps.tmp)
		ps.sum, ps.tmp = nil, nil
	}
	if ps.tape != nil {
		ps.tape.Arena().Release()
		ps.tape.tmp.Release()
		replayTapes.Put(ps.tape)
		ps.tape = nil
	}
}

// formBlock adds every item's share of block b into b's rows of Param.Grad,
// item by item in order, each share summed from +0. An item's record whose
// node can form its slot-b share row by row (formB) goes straight into the
// sum when it is the item's first for b and through the temporary after
// that — forming into +0 and adding to +0 are the same bits; any other
// record is replayed.
func (ps *passer) formBlock(b rowBlock, items []item) {
	cols := b.p.Value.Cols
	sum, tmp := ps.sum[:(b.hi-b.lo)*cols], ps.tmp[:(b.hi-b.lo)*cols]
	grad := b.p.Grad.Data[b.lo*cols : b.hi*cols]
	for _, it := range items {
		fresh := true
		for _, d := range it.t.pending[it.lo:it.hi] {
			if d.p != b.p {
				continue
			}
			n := d.n
			formed := n.formB != nil && n.b.param == b.p && (n.a == nil || n.a.param != b.p)
			switch {
			case formed && fresh:
				clear(sum)
				n.formB(n, sum, b.lo)
			case formed:
				clear(tmp)
				n.formB(n, tmp, b.lo)
				addTo(sum, tmp)
			default:
				if fresh {
					clear(sum)
				}
				ps.replay(d, b, sum)
			}
			fresh = false
		}
		if !fresh {
			addTo(grad, sum)
		}
	}
}

// replay runs d's node adjoint again with only d.p's share live: every
// operand that is d.p's leaf is a stand-in whose gradient is a full-size
// zeroed matrix holding sum in b's rows, every other operand a stand-in with
// NeedsGrad false. The adjoint then does to b's rows exactly what it would
// have done to the parameter's gradient, and they are copied back into sum.
// The node's own values and gradient are only read, so workers may replay
// the same node at once.
func (ps *passer) replay(d deferred, b rowBlock, sum []float64) {
	if ps.tape == nil {
		ps.tape = replayTapes.Get().(*Tape)
	}
	ps.tape.arena.Reset()
	p, cols := d.p, d.p.Value.Cols
	full := ps.tape.arena.Matrix(p.Value.Rows, cols)
	copy(full.Data[b.lo*cols:], sum)
	ps.leaf = Node{Value: p.Value, Grad: full, NeedsGrad: true}
	stand := func(x *Node, s *Node) *Node {
		switch {
		case x == nil:
			return nil
		case x.param == p:
			return &ps.leaf
		}
		*s = Node{Value: x.Value}
		return s
	}
	n := d.n
	ps.node = *n
	sh := &ps.node
	sh.a, sh.b, sh.c = stand(n.a, &ps.stand[0]), stand(n.b, &ps.stand[1]), stand(n.c, &ps.stand[2])
	if n.parts != nil {
		if len(ps.partBuf) < len(n.parts) {
			ps.partBuf = make([]Node, len(n.parts))
			ps.parts = make([]*Node, len(n.parts))
		}
		for i, x := range n.parts {
			ps.parts[i] = stand(x, &ps.partBuf[i])
		}
		sh.parts = ps.parts[:len(n.parts)]
	}
	sh.back(ps.tape, sh)
	ps.tape.tmp.Reset()
	copy(sum, full.Data[b.lo*cols:b.hi*cols])
}
