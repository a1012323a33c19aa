// Package featurize implements the paper's feature extraction (§IV-B): the
// information catcher (DFS node sequence, adjacency matrix, node heights)
// and the encoder (node-type one-hot, robust scaler over the DBMS-estimated
// cost and cardinality, and the loss adjuster L_p = α^H_p of Eq. 4).
//
// The encoding deliberately contains *only* optimizer estimates and node
// types — no predicates, tables, or data characteristics — which is DACE's
// central design bet (Insight I/II).
package featurize

import (
	"math"
	"sort"
	"sync"

	"dace/internal/nn"
	"dace/internal/plan"
)

// FeatureDim is the per-node encoding width: 16 node types one-hot + scaled
// log(estimated cost) + scaled log(estimated cardinality) = 18, matching
// the paper's d = 18.
const FeatureDim = plan.NumNodeTypes + 2

// Scaler is a robust scaler: x ↦ (x − Center)/Scale with Center the median
// and Scale the interquartile range of the fitting values.
type Scaler struct {
	Center float64 `json:"center"`
	Scale  float64 `json:"scale"`
}

// FitScaler computes a robust scaler over values. A degenerate IQR falls
// back to 1 so transforms stay finite.
func FitScaler(values []float64) Scaler {
	if len(values) == 0 {
		return Scaler{Center: 0, Scale: 1}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
		f := pos - float64(lo)
		return s[lo]*(1-f) + s[hi]*f
	}
	iqr := q(0.75) - q(0.25)
	if iqr < 1e-9 {
		iqr = 1
	}
	return Scaler{Center: q(0.5), Scale: iqr}
}

// Transform applies the scaler.
func (s Scaler) Transform(v float64) float64 { return (v - s.Center) / s.Scale }

// Inverse undoes Transform.
func (s Scaler) Inverse(v float64) float64 { return v*s.Scale + s.Center }

// logSafe is the log transform applied before scaling; all three scaled
// quantities (cost, cardinality, latency) are heavy-tailed positives.
func logSafe(v float64) float64 { return math.Log(math.Max(v, 1e-6)) }

// Encoder turns plans into model-ready encodings. Scalers are fit once on
// the training corpus (FitEncoder) and then frozen, including at test time
// on unseen databases — exactly the pre-trained-model protocol.
type Encoder struct {
	Cost  Scaler  `json:"cost"`
	Card  Scaler  `json:"card"`
	Label Scaler  `json:"label"`
	Alpha float64 `json:"alpha"`
	// ActualCard switches the cardinality feature from the optimizer's
	// estimate to the true cardinality — the paper's DACE-A upper-bound
	// variant (Fig. 12). Real deployments cannot do this.
	ActualCard bool `json:"actual_card,omitempty"`
}

// FitEncoder fits the robust scalers on every node of the training plans.
func FitEncoder(plans []*plan.Plan, alpha float64) *Encoder {
	return fitEncoder(plans, alpha, false)
}

// FitEncoderActualCard fits an encoder whose cardinality feature reads true
// cardinalities (DACE-A).
func FitEncoderActualCard(plans []*plan.Plan, alpha float64) *Encoder {
	return fitEncoder(plans, alpha, true)
}

func fitEncoder(plans []*plan.Plan, alpha float64, actualCard bool) *Encoder {
	var costs, cards, labels []float64
	for _, p := range plans {
		for _, n := range p.DFS() {
			costs = append(costs, logSafe(n.EstCost))
			if actualCard {
				cards = append(cards, logSafe(n.ActualRows))
			} else {
				cards = append(cards, logSafe(n.EstRows))
			}
			if n.ActualMS > 0 {
				labels = append(labels, logSafe(n.ActualMS))
			}
		}
	}
	return &Encoder{
		Cost:       FitScaler(costs),
		Card:       FitScaler(cards),
		Label:      FitScaler(labels),
		Alpha:      alpha,
		ActualCard: actualCard,
	}
}

// Encoded is one plan, model-ready.
type Encoded struct {
	// X is the n×18 node encoding sequence in DFS order.
	X *nn.Matrix
	// Mask is the n×n tree-structured attention mask (the ancestor matrix).
	// It is nil when produced by EncodeInto: the hot paths consume Spans
	// instead and never materialize the dense mask.
	Mask *nn.Matrix
	// LossW is the n×1 per-node loss weight α^height (Eq. 4).
	LossW *nn.Matrix
	// Y is the n×1 scaled log actual latency per sub-plan (labels); zero
	// when the plan is unlabeled.
	Y *nn.Matrix
	// Heights are the per-node heights in DFS order.
	Heights []int
	// Spans is the compact form of Mask: in DFS pre-order the descendants
	// of node i are the contiguous block [i, i+subtree(i)), so attention
	// row i participates exactly in Spans[i].
	Spans []nn.Span
	// CostCol is the n×1 scaled log-cost column (X's FeatureDim-2 feature),
	// cached at encode time for the cost-correction residual.
	CostCol *nn.Matrix
	// Types is the per-row node type in DFS order — the index of each row's
	// one-hot bit in X, consumed by the sparse nn.ProjectOneHot projections.
	Types []int
}

// EncodeNodeRow writes one node's model-visible feature row — one-hot
// operator type, scaled log estimated cost, scaled log cardinality — into
// row, which must hold FeatureDim pre-zeroed entries, and returns the
// scaled cost feature (the CostCol entry). It is the single source of the
// per-node encoding arithmetic: fillFlat calls it for every row of a whole
// plan and the core scorer for individual memo-miss nodes, so the two paths
// are bitwise-identical by construction. Only Type, EstCost, EstRows and
// ActualRows are read.
func (e *Encoder) EncodeNodeRow(row []float64, n *plan.Node) float64 {
	row[int(n.Type)] = 1
	cost := e.Cost.Transform(logSafe(n.EstCost))
	row[plan.NumNodeTypes] = cost
	card := n.EstRows
	if e.ActualCard {
		card = n.ActualRows
	}
	row[plan.NumNodeTypes+1] = e.Card.Transform(logSafe(card))
	return cost
}

// fillFlat populates enc — whose matrices are pre-zeroed and whose slices
// are already sized to f.Len() — from the flat plan: the only place whole
// plans become encodings.
func (e *Encoder) fillFlat(enc *Encoded, f *plan.FlatPlan) {
	for i := 0; i < f.Len(); i++ {
		enc.Types[i] = int(f.Types[i])
		enc.Heights[i] = int(f.Heights[i])
		enc.Spans[i] = nn.Span{Lo: int32(i), Hi: int32(i) + f.Subtree[i]}
		node := plan.Node{Type: f.Types[i], EstRows: f.EstRows[i], EstCost: f.EstCost[i], ActualRows: f.ActualRows[i]}
		enc.CostCol.Data[i] = e.EncodeNodeRow(enc.X.Data[i*FeatureDim:(i+1)*FeatureDim], &node)
		w := math.Pow(e.Alpha, float64(enc.Heights[i]))
		if f.ActualMS[i] > 0 {
			enc.Y.Data[i] = e.Label.Transform(logSafe(f.ActualMS[i]))
		} else {
			// An unlabeled node carries no supervision: Y stays 0, and its
			// loss weight must too, or training would pull the node's
			// prediction toward the scaled zero label. Executor-labeled
			// corpora label every node, so this only bites partially
			// labeled plans (e.g. feedback reports carrying only the root
			// latency).
			w = 0
		}
		enc.LossW.Data[i] = w
	}
	if e.Alpha == 0 {
		// α=0 would zero every non-root weight via Pow(0, h>0) but also set
		// the root's 0^0 = 1; that is the intended "root only" mode (the
		// root weight still requires a root label).
		enc.LossW.Zero()
		if f.Len() > 0 && f.ActualMS[0] > 0 {
			enc.LossW.Data[0] = 1
		}
	}
}

// Scratch is reusable encoding storage for the hot inference path: all
// buffers (including the matrix backing store, via an arena) are retained
// across encodes and grow to the largest plan seen, after which encoding
// allocates nothing.
type Scratch struct {
	arena   nn.Arena
	flat    plan.FlatPlan // EncodeInto's tree → flat conversion
	heights []int
	spans   []nn.Span
	types   []int
	enc     Encoded
}

// flatPool lends Encode the FlatPlan its tree is flattened into.
var flatPool = sync.Pool{New: func() any { return new(plan.FlatPlan) }}

// Encode is EncodeFlat for a plan tree: one DFS flattens it (FromTree) into
// a pooled FlatPlan the encoding does not keep.
func (e *Encoder) Encode(p *plan.Plan) *Encoded {
	f := flatPool.Get().(*plan.FlatPlan).FromTree(p)
	enc := e.EncodeFlat(f)
	flatPool.Put(f)
	return enc
}

// EncodeFlat featurizes one plan into freshly allocated (heap) storage,
// including the dense Mask. The result owns its memory indefinitely — the
// training loop caches these. Hot inference paths use EncodeFlatInto.
func (e *Encoder) EncodeFlat(f *plan.FlatPlan) *Encoded {
	n := f.Len()
	enc := &Encoded{
		X:       nn.NewMatrix(n, FeatureDim),
		Mask:    nn.NewMatrix(n, n),
		Y:       nn.NewMatrix(n, 1),
		LossW:   nn.NewMatrix(n, 1),
		CostCol: nn.NewMatrix(n, 1),
		Heights: make([]int, n),
		Spans:   make([]nn.Span, n),
		Types:   make([]int, n),
	}
	e.fillFlat(enc, f)
	for i, sp := range enc.Spans {
		for j := sp.Lo; j < sp.Hi; j++ {
			enc.Mask.Set(i, int(j), 1)
		}
	}
	return enc
}

// EncodeInto featurizes a plan tree into s: it flattens the tree into s's
// own FlatPlan (one DFS) and takes the flat path, so the encoding is the
// one EncodeFlatInto produces for the equivalent decoded plan. The same
// aliasing rule applies.
func (e *Encoder) EncodeInto(s *Scratch, p *plan.Plan) *Encoded {
	return e.EncodeFlatInto(s, s.flat.FromTree(p))
}

// EncodeFlatInto featurizes a flat plan — streaming-decoded or flattened by
// FromTree, which already carries the DFS order, heights and subtree spans
// of the paper's information catcher — into s, returning an Encoded that
// aliases s's buffers: it is valid only until the next encode into the same
// Scratch. The dense Mask is left nil — consumers use Spans. Arithmetic is
// Encode's (both end in fillFlat), so the encodings are bitwise-equal.
func (e *Encoder) EncodeFlatInto(s *Scratch, f *plan.FlatPlan) *Encoded {
	s.arena.Reset()
	n := f.Len()
	if cap(s.types) < n {
		s.heights, s.spans, s.types = make([]int, n), make([]nn.Span, n), make([]int, n)
	}
	enc := &s.enc
	enc.X = s.arena.Matrix(n, FeatureDim)
	enc.Y = s.arena.Matrix(n, 1)
	enc.LossW = s.arena.Matrix(n, 1)
	enc.CostCol = s.arena.Matrix(n, 1)
	enc.Heights, enc.Spans, enc.Types = s.heights[:n], s.spans[:n], s.types[:n]
	e.fillFlat(enc, f)
	return enc
}

// InverseLabel maps a model output (scaled log ms) back to milliseconds.
func (e *Encoder) InverseLabel(v float64) float64 {
	return math.Exp(e.Label.Inverse(v))
}

// LabelOf returns the scaled log label of an actual latency.
func (e *Encoder) LabelOf(actualMS float64) float64 {
	return e.Label.Transform(logSafe(actualMS))
}
