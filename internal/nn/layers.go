package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a fully connected layer y = x·W + b.
type Dense struct {
	W *Param
	B *Param
}

// NewDense allocates a Dense layer with Xavier-initialized weights.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		W: NewParam(name+".W", in, out),
		B: NewParam(name+".B", 1, out),
	}
	XavierInit(d.W.Value, in, out, rng)
	return d
}

// Apply records the layer's forward pass on the tape.
func (d *Dense) Apply(t *Tape, x *Node) *Node {
	return t.AddRow(t.MatMul(x, t.Leaf(d.W)), t.Leaf(d.B))
}

// Params returns the layer's trainable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Clone returns a deep copy of the layer (fresh gradients, copied values).
func (d *Dense) Clone() *Dense { return &Dense{W: d.W.Clone(), B: d.B.Clone()} }

// In returns the layer's input width.
func (d *Dense) In() int { return d.W.Value.Rows }

// Out returns the layer's output width.
func (d *Dense) Out() int { return d.W.Value.Cols }

// FinishDense completes a Dense layer's forward in place outside the tape:
// the 1×out.Cols bias added to every row of out, then the scaled adapter
// term ad (out's shape) when ad is non-nil, then ReLU when relu is set — the
// tape's AddRow, Add and ReLU ops in their order, each element taking the
// same two adds and the same select, so every bit is the tape's. Each step
// runs once over its rows on the vector kernels.
func FinishDense(out, bias, ad *Matrix, relu bool) {
	if bias.Rows != 1 || bias.Cols != out.Cols {
		panic(fmt.Sprintf("nn: FinishDense wants a 1×%d bias, got %s", out.Cols, bias.shape()))
	}
	if ad != nil && !ad.SameShape(out) {
		panic(fmt.Sprintf("nn: FinishDense adapter term %s for %s", ad.shape(), out.shape()))
	}
	for r := 0; r < len(out.Data); r += out.Cols {
		addTo(out.Data[r:r+out.Cols], bias.Data)
	}
	if ad != nil {
		addTo(out.Data, ad.Data)
	}
	if relu {
		reluTo(out.Data, out.Data)
	}
}

// LoRADense is a Dense layer with an optional low-rank adapter:
//
//	y = x·W + b + x·(Bᵣ·Aᵣ)·scale
//
// matching DACE Eq. (8): during pre-training only W/b train and the adapter
// is absent; during fine-tuning W/b freeze and only the rank-r factors
// train. scale follows the usual LoRA convention alpha/r.
type LoRADense struct {
	Base  *Dense
	Down  *Param // in×r ("W_B" in the paper's notation)
	Up    *Param // r×out ("W_A")
	Rank  int
	Scale float64
}

// NewLoRADense wraps base with a rank-r adapter. The down-projection gets a
// small random initialization and the up-projection starts at zero, so the
// adapter is an exact no-op before fine-tuning.
func NewLoRADense(base *Dense, rank int, rng *rand.Rand) *LoRADense {
	// Note: the paper's own configuration (r₃=8 for the 64→1 layer) exceeds
	// min(in, out), so only positivity is enforced here.
	if rank <= 0 {
		panic(fmt.Sprintf("nn: LoRA rank %d invalid for %d×%d layer", rank, base.In(), base.Out()))
	}
	l := &LoRADense{
		Base:  base,
		Down:  NewParam(base.W.Name+".lora.down", base.In(), rank),
		Up:    NewParam(base.W.Name+".lora.up", rank, base.Out()),
		Rank:  rank,
		Scale: 1.0 / float64(rank),
	}
	XavierInit(l.Down.Value, base.In(), rank, rng)
	return l
}

// Apply records base output plus the adapter path.
func (l *LoRADense) Apply(t *Tape, x *Node) *Node {
	y := l.Base.Apply(t, x)
	return t.Add(y, l.Adapter(t, x))
}

// Adapter records the adapter path alone, x·(Bᵣ·Aᵣ)·scale.
func (l *LoRADense) Adapter(t *Tape, x *Node) *Node {
	return t.Scale(t.MatMul(t.MatMul(x, t.Leaf(l.Down)), t.Leaf(l.Up)), l.Scale)
}

// Params returns all parameters (base + adapter).
func (l *LoRADense) Params() []*Param {
	return append(l.Base.Params(), l.Down, l.Up)
}

// CloneWithBase returns a deep copy of the adapter factors attached to the
// given (already cloned) base layer, so a cloned model shares no parameter
// storage with its original.
func (l *LoRADense) CloneWithBase(base *Dense) *LoRADense {
	return &LoRADense{
		Base:  base,
		Down:  l.Down.Clone(),
		Up:    l.Up.Clone(),
		Rank:  l.Rank,
		Scale: l.Scale,
	}
}

// FreezeBase marks the wrapped Dense untrainable and the adapter trainable,
// entering fine-tuning mode.
func (l *LoRADense) FreezeBase() {
	l.Base.W.Frozen = true
	l.Base.B.Frozen = true
	l.Down.Frozen = false
	l.Up.Frozen = false
}

// Attention is a single-head scaled dot-product attention block with a
// per-call constant mask, as used by DACE's tree-structured attention.
type Attention struct {
	WQ, WK, WV *Param
	DK         int
}

// NewAttention allocates projections from d-dimensional inputs to dk-dim
// queries/keys and dv-dim values.
func NewAttention(name string, d, dk, dv int, rng *rand.Rand) *Attention {
	a := &Attention{
		WQ: NewParam(name+".WQ", d, dk),
		WK: NewParam(name+".WK", d, dk),
		WV: NewParam(name+".WV", d, dv),
		DK: dk,
	}
	XavierInit(a.WQ.Value, d, dk, rng)
	XavierInit(a.WK.Value, d, dk, rng)
	XavierInit(a.WV.Value, d, dv, rng)
	return a
}

// ApplyOneHot records masked attention softmax(Q·Kᵀ/√dk ⊙ mask)·V over a
// constant input whose rows are DACE plan features (one-hot node type + cost
// + cardinality, see ProjectOneHotInto). The Q/K/V projections touch only the
// three weight rows each input row selects, in both the forward pass and the
// weight adjoints, and row i's softmax runs only inside spans[i] through the
// fused span kernels, so masked (i,j) pairs are never computed. Outputs and
// gradients are bitwise identical to the dense, composed chain the tests
// compare against (Apply in layers_test.go).
func (a *Attention) ApplyOneHot(t *Tape, x *Matrix, types []int, hot int, spans []Span) *Node {
	q := t.ProjectOneHot(x, types, hot, t.Leaf(a.WQ))
	k := t.ProjectOneHot(x, types, hot, t.Leaf(a.WK))
	v := t.ProjectOneHot(x, types, hot, t.Leaf(a.WV))
	attn := t.MaskedSoftmaxQKT(q, k, 1/math.Sqrt(float64(a.DK)), spans)
	return t.MatMulSpans(attn, v, spans)
}

// Params returns the projection parameters.
func (a *Attention) Params() []*Param { return []*Param{a.WQ, a.WK, a.WV} }

// Clone returns a deep copy of the attention block.
func (a *Attention) Clone() *Attention {
	return &Attention{WQ: a.WQ.Clone(), WK: a.WK.Clone(), WV: a.WV.Clone(), DK: a.DK}
}

// MLP is a stack of Dense layers with ReLU between them (none after the last).
type MLP struct {
	Layers []*Dense
}

// NewMLP builds an MLP with the given layer widths, e.g. dims = [128,64,1]
// with in=128 builds 128→128→64→1.
func NewMLP(name string, in int, dims []int, rng *rand.Rand) *MLP {
	m := &MLP{}
	prev := in
	for i, d := range dims {
		m.Layers = append(m.Layers, NewDense(fmt.Sprintf("%s.%d", name, i), prev, d, rng))
		prev = d
	}
	return m
}

// Apply records the forward pass.
func (m *MLP) Apply(t *Tape, x *Node) *Node {
	for i, l := range m.Layers {
		x = l.Apply(t, x)
		if i != len(m.Layers)-1 {
			x = t.ReLU(x)
		}
	}
	return x
}

// Params returns all layer parameters.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams counts scalar parameters in ps.
func NumParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += len(p.Value.Data)
	}
	return n
}

// SizeMB reports the float32-equivalent size of ps in megabytes, matching
// how the paper reports model sizes.
func SizeMB(ps []*Param) float64 {
	return float64(NumParams(ps)) * 4 / (1024 * 1024)
}
