package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"dace/internal/dataset"
	"dace/internal/featurize"
	"dace/internal/nn"
	"dace/internal/plan"
)

// tpHidden is the pooled representation width.
const tpHidden = 256

// tpColBuckets hashes predicate columns, standing in for TPool's learned
// string/predicate embeddings.
const tpColBuckets = 16

// TPool is the end-to-end learned cost estimator of Sun & Li: per-node
// representations built from operator type *and* predicate/table features
// (data characteristics, vocabulary-bound), combined by recursive tree
// pooling (mean + max of children), with multi-task heads predicting both
// cardinality and latency.
type TPool struct {
	Env    *Env
	Epochs int
	LR     float64
	Seed   int64
	// CardWeight balances the auxiliary cardinality task.
	CardWeight float64
	// Workers sizes the data-parallel training pool; <= 0 means GOMAXPROCS.
	Workers int

	nodeMLP  *nn.MLP
	costHead *nn.MLP
	cardHead *nn.MLP
	enc      *featurize.Encoder
	rows     featurize.Scaler
	card     featurize.Scaler
}

// NewTPool builds an untrained TPool.
func NewTPool(env *Env) *TPool {
	return &TPool{Env: env, Epochs: 20, LR: 1e-3, Seed: 6, CardWeight: 0.5}
}

// Name implements Estimator.
func (tp *TPool) Name() string { return "TPool" }

func (tp *TPool) params() []*nn.Param {
	ps := append(tp.nodeMLP.Params(), tp.costHead.Params()...)
	return append(ps, tp.cardHead.Params()...)
}

// SizeMB implements Estimator.
func (tp *TPool) SizeMB() float64 {
	if tp.nodeMLP == nil {
		tp.build()
	}
	return nn.SizeMB(tp.params())
}

func (tp *TPool) featDim() int {
	// base encoding + hashed predicate columns + op histogram + table rows +
	// predicate count.
	return featurize.FeatureDim + tpColBuckets + len(mscnOps) + 2
}

func (tp *TPool) build() {
	rng := rand.New(rand.NewSource(tp.Seed))
	in := tp.featDim() + 2*tpHidden // own features + mean-pool + max-pool of children
	tp.nodeMLP = nn.NewMLP("tpool.node", in, []int{896, tpHidden}, rng)
	tp.costHead = nn.NewMLP("tpool.cost", tpHidden, []int{64, 1}, rng)
	tp.cardHead = nn.NewMLP("tpool.card", tpHidden, []int{64, 1}, rng)
}

// nodeFeatures builds the data-characteristic node encodings.
func (tp *TPool) nodeFeatures(enc *featurize.Encoded, p *plan.Plan) *nn.Matrix {
	nodes := p.DFS()
	out := nn.NewMatrix(len(nodes), tp.featDim())
	for i, n := range nodes {
		for j := 0; j < featurize.FeatureDim; j++ {
			out.Set(i, j, enc.X.At(i, j))
		}
		off := featurize.FeatureDim
		if n.Meta != nil {
			for _, f := range n.Meta.Filters {
				out.Set(i, off+hashBucket(tpColBuckets, p.Database, n.Meta.Table, f.Column), 1)
				for oi, op := range mscnOps {
					if op == f.Op {
						out.Set(i, off+tpColBuckets+oi, 1)
					}
				}
			}
			if n.Meta.Table != "" {
				out.Set(i, off+tpColBuckets+len(mscnOps),
					tp.rows.Transform(math.Log(math.Max(tp.Env.TableRows(p.Database, n.Meta.Table), 1))))
			}
			out.Set(i, off+tpColBuckets+len(mscnOps)+1, float64(len(n.Meta.Filters))/4)
		}
	}
	return out
}

// maxRows is a column-wise max pool over rows, built from existing ops:
// max(a, b) = a + relu(b − a), folded across rows.
func maxRows(t *nn.Tape, rows []*nn.Node) *nn.Node {
	acc := rows[0]
	for _, r := range rows[1:] {
		acc = t.Add(acc, t.ReLU(t.Sub(r, acc)))
	}
	return acc
}

// forward runs recursive tree pooling and returns (cost, card) predictions.
func (tp *TPool) forward(t *nn.Tape, feats *nn.Matrix, p *plan.Plan) (cost, card *nn.Node) {
	nodes := p.DFS()
	index := map[*plan.Node]int{}
	for i, n := range nodes {
		index[n] = i
	}
	var walk func(n *plan.Node) *nn.Node
	walk = func(n *plan.Node) *nn.Node {
		var mean, max *nn.Node
		if len(n.Children) == 0 {
			mean = t.Const(nn.NewMatrix(1, tpHidden))
			max = t.Const(nn.NewMatrix(1, tpHidden))
		} else {
			hs := make([]*nn.Node, 0, len(n.Children))
			for _, c := range n.Children {
				hs = append(hs, walk(c))
			}
			mean = t.MeanRows(t.ConcatRows(hs...))
			max = maxRows(t, hs)
		}
		feat := t.Const(rowOf(feats, index[n]))
		return t.ReLU(tp.nodeMLP.Apply(t, t.ConcatCols(feat, mean, max)))
	}
	root := walk(p.Root)
	return tp.costHead.Apply(t, root), tp.cardHead.Apply(t, root)
}

// Train implements Estimator: multi-task on root latency and cardinality.
func (tp *TPool) Train(samples []dataset.Sample) error {
	if len(samples) == 0 {
		return fmt.Errorf("tpool: no training samples")
	}
	plans := dataset.Plans(samples)
	tp.enc = featurize.FitEncoder(plans, 0)
	var logRows, logCards []float64
	for _, s := range samples {
		for _, tn := range s.Query.Tables {
			logRows = append(logRows, math.Log(math.Max(tp.Env.TableRows(s.Query.Database, tn), 1)))
		}
		logCards = append(logCards, math.Log(math.Max(s.Plan.Root.ActualRows, 1)))
	}
	tp.rows = featurize.FitScaler(logRows)
	tp.card = featurize.FitScaler(logCards)
	tp.build()
	feats := make([]*nn.Matrix, len(samples))
	yCost := make([]float64, len(samples))
	yCard := make([]float64, len(samples))
	for i, s := range samples {
		feats[i] = tp.nodeFeatures(tp.enc.Encode(s.Plan), s.Plan)
		yCost[i] = tp.enc.LabelOf(s.Plan.Root.ActualMS)
		yCard[i] = tp.card.Transform(math.Log(math.Max(s.Plan.Root.ActualRows, 1)))
	}
	trainLoop(tp.params(), len(samples), func(t *nn.Tape, i int) *nn.Node {
		cost, card := tp.forward(t, feats[i], samples[i].Plan)
		lc := t.Sum(t.Abs(t.Sub(cost, t.Const(nn.FromSlice(1, 1, []float64{yCost[i]})))))
		lk := t.Sum(t.Abs(t.Sub(card, t.Const(nn.FromSlice(1, 1, []float64{yCard[i]})))))
		return t.Add(lc, t.Scale(lk, tp.CardWeight))
	}, tp.LR, tp.Epochs, 16, int(tp.Seed), tp.Workers)
	return nil
}

// Predict implements Estimator.
func (tp *TPool) Predict(s dataset.Sample) float64 {
	t := nn.GetTape()
	feats := tp.nodeFeatures(tp.enc.Encode(s.Plan), s.Plan)
	cost, _ := tp.forward(t, feats, s.Plan)
	v := cost.Value.At(0, 0)
	nn.PutTape(t)
	return math.Exp(tp.enc.Label.Inverse(v))
}
