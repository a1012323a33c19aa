// Package core implements DACE — the paper's Database-Agnostic Cost
// Estimator: a single-layer, single-head transformer encoder with a
// tree-structured attention mask over plan-node encodings, an MLP head that
// predicts the cost of every sub-plan in parallel (Eq. 6), a
// tree-structure-based loss adjustment (Eq. 4/7), LoRA fine-tuning of the
// MLP for across-more adaptation (Eq. 8), and a pre-trained-encoder mode
// whose hidden state can be injected into within-database models (Eq. 9).
package core

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"dace/internal/featurize"
	"dace/internal/nn"
	"dace/internal/plan"
)

// Config are DACE's hyperparameters; DefaultConfig matches the paper (§V-A).
type Config struct {
	// DK and DV are the attention projection widths (paper: 128, 128).
	DK, DV int
	// Hidden are the MLP layer widths (paper: 128, 64, 1).
	Hidden []int
	// Alpha is the loss adjuster base of Eq. 4 (paper: 0.5, by binary
	// search). Alpha = 0 disables sub-plan learning ("DACE w/o SP");
	// Alpha = 1 disables the adjustment ("DACE w/o LA").
	Alpha float64
	// TreeAttention toggles the tree-structured attention mask; false is
	// the "DACE w/o TA" ablation (every node attends to every node).
	TreeAttention bool
	// LoRARanks are the per-MLP-layer adapter ranks (paper: 32, 16, 8).
	LoRARanks []int
	// ActualCardInput feeds true cardinalities instead of optimizer
	// estimates — the DACE-A upper bound of Fig. 12.
	ActualCardInput bool
	// Training knobs.
	LR        float64
	Epochs    int
	BatchSize int
	Seed      int64
	// Workers sizes the data-parallel goroutine pool used for minibatch
	// gradient computation and batch inference; <= 0 means one worker per
	// available CPU (runtime.GOMAXPROCS(0)). Results are bitwise identical
	// for any worker count: each parameter's gradient is formed plan by
	// plan in minibatch order (nn.GradPool).
	Workers int
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		DK: 128, DV: 128,
		Hidden:        []int{128, 64, 1},
		Alpha:         0.5,
		TreeAttention: true,
		LoRARanks:     []int{32, 16, 8},
		LR:            1.5e-3,
		Epochs:        20,
		BatchSize:     16,
		Seed:          1,
	}
}

// Model is a trained (or in-training) DACE instance.
type Model struct {
	Cfg Config
	Enc *featurize.Encoder
	Att *nn.Attention
	MLP []*nn.Dense
	// Gamma is the cost-correction residual coefficient: the prediction is
	// MLP(attention) + γ·scaled_cost. DACE's framing is learning the *error
	// distribution of the optimizer's cost* (EDQO); making the optimizer's
	// cost an explicit residual base realizes that framing and lets the
	// model extrapolate to cost regimes outside the training range (data
	// drift, Fig. 7).
	Gamma *nn.Param
	// lora holds the adapters after EnableLoRA; nil during pre-training.
	lora []*nn.LoRADense

	// Hooks, when non-nil, observes the training loop (per-epoch loss,
	// throughput, worker utilization). Nil — the default, and what Clone
	// resets to — keeps fit exactly as cheap as before: no timestamps and
	// no allocations. Set it before Train/FineTuneLoRA.
	Hooks nn.TrainHooks
}

// NewModel builds an untrained DACE with freshly initialized weights; the
// encoder's scalers must be fit before training (Train does this).
func NewModel(cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{
		Cfg:   cfg,
		Att:   nn.NewAttention("dace.att", featurize.FeatureDim, cfg.DK, cfg.DV, rng),
		Gamma: nn.NewParam("dace.gamma", 1, 1),
	}
	m.Gamma.Value.Data[0] = 1
	prev := cfg.DV
	for i, h := range cfg.Hidden {
		m.MLP = append(m.MLP, nn.NewDense(fmt.Sprintf("dace.mlp.%d", i), prev, h, rng))
		prev = h
	}
	return m
}

// Clone returns a deep copy of the model: every parameter (attention, MLP,
// γ, and any LoRA adapters) gets independent storage with fresh zero
// gradients, while the fitted encoder and the Config slices — immutable
// after construction — are shared. Fine-tuning the clone never mutates the
// original, so a serving model can keep answering Predict calls while its
// clone trains in the background.
func (m *Model) Clone() *Model {
	c := &Model{
		Cfg:   m.Cfg,
		Enc:   m.Enc,
		Att:   m.Att.Clone(),
		Gamma: m.Gamma.Clone(),
	}
	c.MLP = make([]*nn.Dense, len(m.MLP))
	for i, l := range m.MLP {
		c.MLP[i] = l.Clone()
	}
	if m.lora != nil {
		c.lora = make([]*nn.LoRADense, len(m.lora))
		for i, ad := range m.lora {
			c.lora[i] = ad.CloneWithBase(c.MLP[i])
		}
	}
	return c
}

// Params returns all trainable parameters (attention + MLP + adapters).
func (m *Model) Params() []*nn.Param {
	ps := append([]*nn.Param(nil), m.Att.Params()...)
	ps = append(ps, m.Gamma)
	for i, l := range m.MLP {
		if m.lora != nil {
			ps = append(ps, m.lora[i].Params()...)
		} else {
			ps = append(ps, l.Params()...)
		}
	}
	return ps
}

// forward records the full DACE forward pass for one encoded plan on the
// autodiff tape and returns (per-node predictions n×1, hidden states);
// hiddenLayer selects which MLP hidden activation to also return (-1 for
// none). The tape is for training: loss is its only caller outside tests,
// where it is the reference forwardRaw is compared against bitwise.
func (m *Model) forward(t *nn.Tape, enc *featurize.Encoded, hiddenLayer int) (pred, hidden *nn.Node) {
	// The Q/K/V projections go through the one-hot-aware kernel: each plan
	// feature row selects its type row of W plus the two scaled cost/card
	// rows, which is bitwise identical to the dense X·W at a sixth of the
	// work (see nn.ProjectOneHotInto).
	h := m.Att.ApplyOneHot(t, enc.X, enc.Types, plan.NumNodeTypes, m.spansFor(enc))
	return m.head(t, h, enc, hiddenLayer, nil)
}

// spansFor returns the attention spans the configuration calls for: the
// tree-structured ancestor spans, or full rows for the "w/o TA" ablation.
func (m *Model) spansFor(enc *featurize.Encoded) []nn.Span {
	if m.Cfg.TreeAttention {
		return enc.Spans
	}
	return nn.FullSpans(enc.X.Rows)
}

// head records the MLP (+ optional LoRA adapters) and the cost-correction
// residual on top of the attention output h. base0, if non-nil, is the
// first layer's frozen base output h·W₀ + b₀ (see prefix): only that
// layer's adapter path is recorded.
func (m *Model) head(t *nn.Tape, h *nn.Node, enc *featurize.Encoded, hiddenLayer int, base0 *nn.Matrix) (pred, hidden *nn.Node) {
	for i := range m.MLP {
		switch {
		case i == 0 && base0 != nil:
			h = t.Add(t.Const(base0), m.lora[0].Adapter(t, h))
		case m.lora != nil:
			h = m.lora[i].Apply(t, h)
		default:
			h = m.MLP[i].Apply(t, h)
		}
		if i != len(m.MLP)-1 {
			h = t.ReLU(h)
			if i == hiddenLayer {
				hidden = h
			}
		}
	}
	// Cost-correction residual: add γ·scaled_cost per node.
	pred = t.Add(h, t.ScaleConst(t.Leaf(m.Gamma), enc.CostCol))
	return pred, hidden
}

// prefix is the frozen start of a plan's LoRA fine-tuning forward pass,
// computed once per fit: the attention output h and the first layer's base
// output h·W₀ + b₀.
type prefix struct {
	h, base0 *nn.Matrix
}

// prefixes computes the prefix of every encoded plan into memory drawn from
// held, on m's workers.
func (m *Model) prefixes(encoded []*featurize.Encoded, held *nn.Arena) []prefix {
	out := make([]prefix, len(encoded))
	l0 := m.MLP[0]
	for i, enc := range encoded {
		out[i] = prefix{
			h:     held.UninitMatrix(enc.X.Rows, m.Att.WV.Value.Cols),
			base0: held.Matrix(enc.X.Rows, l0.Out()),
		}
	}
	nn.ParallelFor(len(encoded), m.Cfg.Workers, func(i int) {
		pre := out[i]
		s := scratchPool.Get().(*scratch)
		s.arena.Reset()
		_, h := m.forwardRaw(&s.arena, encoded[i], encoded[i].X.Rows, attentionOnly)
		copy(pre.h.Data, h.Data)
		scratchPool.Put(s)
		// The tape's MatMul then AddRow in raw arithmetic: the same kernel
		// and the same adds, so the same bits.
		nn.MatMulInto(pre.base0, pre.h, l0.W.Value)
		cols := pre.base0.Cols
		for r := 0; r < pre.base0.Rows; r++ {
			for j, b := range l0.B.Value.Data {
				pre.base0.Data[r*cols+j] += b
			}
		}
	})
	return out
}

// loss records the Eq. (7) training loss for one plan: the per-node
// absolute log-q-error weighted by the loss adjuster, normalized by the
// total weight so plans of different sizes contribute comparably. pre, if
// non-nil, is the plan's frozen prefix.
func (m *Model) loss(t *nn.Tape, enc *featurize.Encoded, pre *prefix) *nn.Node {
	var pred *nn.Node
	if pre != nil {
		pred, _ = m.head(t, t.Const(pre.h), enc, -1, pre.base0)
	} else {
		pred, _ = m.forward(t, enc, -1)
	}
	diff := t.Abs(t.Sub(pred, t.Const(enc.Y)))
	weighted := t.MulConst(diff, enc.LossW)
	var wsum float64
	for _, w := range enc.LossW.Data {
		wsum += w
	}
	if wsum <= 0 {
		wsum = 1
	}
	return t.Scale(t.Sum(weighted), 1/wsum)
}

// Train fits DACE on labeled plans. It fits the encoder's robust scalers on
// the same corpus (the paper's protocol: scalers are part of the
// pre-trained artifact).
func Train(plans []*plan.Plan, cfg Config) *Model {
	m := NewModel(cfg)
	if cfg.ActualCardInput {
		m.Enc = featurize.FitEncoderActualCard(plans, cfg.Alpha)
	} else {
		m.Enc = featurize.FitEncoder(plans, cfg.Alpha)
	}
	m.fit(encodeAll(m, plans, (*featurize.Encoder).Encode), cfg.LR, cfg.Epochs)
	return m
}

// encodeAll featurizes fit's corpus, trees or flat plans, on m's workers.
func encodeAll[P any](m *Model, plans []P, encode func(*featurize.Encoder, P) *featurize.Encoded) []*featurize.Encoded {
	encoded := make([]*featurize.Encoded, len(plans))
	nn.ParallelFor(len(plans), m.Cfg.Workers, func(i int) {
		encoded[i] = encode(m.Enc, plans[i])
	})
	return encoded
}

// fit runs the mini-batch Adam loop over plans. Each minibatch fans out to
// a worker pool (Config.Workers): workers run forward+backward on private
// tapes against the fixed parameter values, and the ordered pass forms each
// parameter's gradient plan by plan in minibatch order — so the trained
// weights are bitwise identical for any worker count and any goroutine
// schedule.
func (m *Model) fit(encoded []*featurize.Encoded, lr float64, epochs int) {
	// LoRA fine-tuning: the attention block and every base weight are
	// frozen, so each plan's prefix is fixed — compute it once and train
	// only the adapters over it. Prefixes die with the fit, so they are
	// borrowed from the arena chunk pools and handed back with it.
	var prefixes []prefix
	var held nn.Arena
	defer held.Release()
	if m.lora != nil {
		prefixes = m.prefixes(encoded, &held)
	}
	params := m.Params()
	opt := nn.NewAdam(params, lr)
	defer opt.Release()
	pool := nn.NewGradPool(params, m.Cfg.Workers)
	defer pool.Release()
	// Instrumentation is armed only when hooks are installed; the nil-hook
	// path skips every timestamp below (the epoch loss is summed either way:
	// one add per minibatch).
	hooks := m.Hooks
	pool.Timing = hooks != nil
	rng := rand.New(rand.NewSource(m.Cfg.Seed + 7))
	order := rng.Perm(len(encoded))
	batch := m.Cfg.BatchSize
	if batch <= 0 {
		batch = 16
	}
	for e := 0; e < epochs; e++ {
		var epochLoss float64
		var epochStart time.Time
		if hooks != nil {
			epochStart = time.Now()
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for b := 0; b < len(order); b += batch {
			end := b + batch
			if end > len(order) {
				end = len(order)
			}
			idxs := order[b:end]
			epochLoss += pool.Step(opt, len(idxs), func(t *nn.Tape, i int) *nn.Node {
				var pre *prefix
				if prefixes != nil {
					pre = &prefixes[idxs[i]]
				}
				return m.loss(t, encoded[idxs[i]], pre)
			})
		}
		if hooks != nil {
			dur := time.Since(epochStart)
			util := 0.0
			if dur > 0 && pool.WorkerCount() > 0 {
				util = float64(pool.TakeBusy()) / (float64(dur) * float64(pool.WorkerCount()))
				if util > 1 {
					util = 1
				}
			}
			mean := 0.0
			if len(encoded) > 0 {
				mean = epochLoss / float64(len(encoded))
			}
			hooks.EpochDone(e, nn.EpochStats{
				Plans:             len(encoded),
				Loss:              mean,
				Duration:          dur,
				WorkerUtilization: util,
			})
		}
	}
}

// scratch bundles the reusable per-goroutine inference state: an encoder
// Scratch plus the arena forwardRaw draws its temporaries from. Pooled so
// steady-state Predict/PredictSubPlans/Embed calls allocate (almost)
// nothing regardless of which goroutine runs them.
type scratch struct {
	enc   featurize.Scratch
	arena nn.Arena
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// attentionOnly, passed as forwardRaw's hiddenLayer, stops the pass after
// the attention block.
const attentionOnly = -2

// forwardRaw is the inference forward pass: masked attention, the MLP head
// (+ LoRA adapters when attached) and the γ·cost residual in raw matrix
// arithmetic — no autodiff tape, every temporary drawn from a. Values (and,
// for queryRows ≠ 1, keys) are projected for all n rows; queries, softmax,
// MLP and residual run for the first queryRows rows only: 1 prices the root
// (whose span is the whole plan, scored by nn.OneHotRootSoftmaxInto without
// building K), n prices every sub-plan at once (Eq. 6). It returns the
// queryRows×1 scaled-log predictions and, for hiddenLayer ≥ 0, that MLP
// layer's post-ReLU activation (Eq. 9 reads h₂); with attentionOnly it
// returns (nil, attention output) without running the head. Row for row
// the arithmetic is the tape forward's — same kernels, same order — so
// every output is bitwise-identical to it, and row i is the same whatever
// queryRows is. Only enc.X, Types, CostCol and (for queryRows ≠ 1) Spans
// are read. Results are valid until a is reset.
func (m *Model) forwardRaw(a *nn.Arena, enc *featurize.Encoded, queryRows, hiddenLayer int) (pred, hidden *nn.Matrix) {
	h := m.attendRaw(a, enc, queryRows)
	if hiddenLayer == attentionOnly {
		return nil, h
	}
	return m.headRaw(a, h, enc.CostCol.Data[:queryRows], hiddenLayer)
}

// attendRaw is forwardRaw's attention half: the queryRows×DV attention
// output of enc's leading rows, every temporary drawn from a.
func (m *Model) attendRaw(a *nn.Arena, enc *featurize.Encoded, queryRows int) *nn.Matrix {
	x, n := enc.X, enc.X.Rows
	xq := nn.Matrix{Rows: queryRows, Cols: x.Cols, Data: x.Data[:queryRows*x.Cols]} // leading-rows view
	// ProjectOneHotInto assigns every element of its destination, so the
	// three projections skip the arena's clear.
	q := a.UninitMatrix(queryRows, m.Att.WQ.Value.Cols)
	nn.ProjectOneHotInto(q, &xq, m.Att.WQ.Value, enc.Types, plan.NumNodeTypes)
	v := a.UninitMatrix(n, m.Att.WV.Value.Cols)
	nn.ProjectOneHotInto(v, x, m.Att.WV.Value, enc.Types, plan.NumNodeTypes)
	invScale := 1 / math.Sqrt(float64(m.Cfg.DK))
	rootSpan := [1]nn.Span{{Lo: 0, Hi: int32(n)}}
	spans := rootSpan[:]
	probs := a.Matrix(queryRows, n)
	if queryRows == 1 {
		// The root's span is the whole plan: its n scores come straight
		// from WK's one-hot rows, and K is never built.
		nn.OneHotRootSoftmaxInto(probs, q, x, m.Att.WK.Value, enc.Types, plan.NumNodeTypes, invScale)
	} else {
		spans = m.spansFor(enc)[:queryRows]
		k := a.UninitMatrix(n, m.Att.WK.Value.Cols)
		nn.ProjectOneHotInto(k, x, m.Att.WK.Value, enc.Types, plan.NumNodeTypes)
		nn.MaskedSoftmaxQKTInto(probs, q, k, invScale, spans)
	}
	h := a.Matrix(queryRows, v.Cols)
	nn.MatMulSpansInto(h, probs, v, spans)
	return h
}

// headRaw is forwardRaw's other half, and row-local: the MLP (+ LoRA
// adapters when attached) over the rows of h, then the γ·cost residual with
// costs[r] the scaled cost of row r. The rows need not come from one plan —
// the Scorer stacks the attention outputs of a whole DP cell's candidates
// and runs the head once — and a row's outputs do not depend on which rows
// accompany it. Returns are forwardRaw's.
func (m *Model) headRaw(a *nn.Arena, h *nn.Matrix, costs []float64, hiddenLayer int) (pred, hidden *nn.Matrix) {
	rows, last := h.Rows, len(m.MLP)-1
	for i, l := range m.MLP {
		next := a.Matrix(rows, l.Out())
		nn.MatMulInto(next, h, l.W.Value)
		var ad *nn.Matrix
		if m.lora != nil {
			down := a.Matrix(rows, m.lora[i].Rank)
			nn.MatMulInto(down, h, m.lora[i].Down.Value)
			up := a.Matrix(rows, l.Out())
			nn.MatMulInto(up, down, m.lora[i].Up.Value)
			nn.ScaleInPlace(up, m.lora[i].Scale)
			ad = up
		}
		nn.FinishDense(next, l.B.Value, ad, i != last)
		h = next
		if i == hiddenLayer && i != last {
			hidden = h
		}
	}
	// Cost-correction residual: add γ·scaled_cost per row.
	gamma := m.Gamma.Value.Data[0]
	for r := range h.Data {
		h.Data[r] += gamma * costs[r]
	}
	return h, hidden
}

// Predict returns the estimated execution time (ms) of the plan's root —
// the quantity q-error is computed over. As in the paper, inference prices
// only the root: the attention query is computed for the root row alone and
// the MLP runs on a single vector, so prediction is much cheaper than a
// training pass (use PredictSubPlans when every node's estimate is wanted).
func (m *Model) Predict(p *plan.Plan) float64 {
	s := scratchPool.Get().(*scratch)
	enc := m.Enc.EncodeInto(&s.enc, p)
	s.arena.Reset()
	pred, _ := m.forwardRaw(&s.arena, enc, 1, -1)
	out := m.Enc.InverseLabel(pred.Data[0])
	scratchPool.Put(s)
	return out
}

// PredictBatch predicts root latencies (ms) for many plans, fanning the
// tape-free inference path out across workers (<= 0 selects GOMAXPROCS).
// Every prediction is independent — the model is read-only during inference
// — so output order matches input order and results are identical to
// calling Predict serially.
func (m *Model) PredictBatch(plans []*plan.Plan, workers int) []float64 {
	out := make([]float64, len(plans))
	nn.ParallelFor(len(plans), workers, func(i int) {
		out[i] = m.Predict(plans[i])
	})
	return out
}

// PredictSubPlansBatch runs PredictSubPlans over many plans in parallel,
// returning one DFS-ordered latency slice per plan.
func (m *Model) PredictSubPlansBatch(plans []*plan.Plan, workers int) [][]float64 {
	out := make([][]float64, len(plans))
	nn.ParallelFor(len(plans), workers, func(i int) {
		out[i] = m.PredictSubPlans(plans[i])
	})
	return out
}

// AppendPredictSubPlansBatch is PredictSubPlansBatch with caller-owned
// result storage: dst is grown to one slice per plan and each element is
// refilled in place (dst[i] = AppendPredictSubPlans(dst[i][:0], …)), so a
// caller that recycles the same dst across batches reaches zero
// steady-state allocations for the result buffers once every element has
// enough capacity. Output order matches input order and values are
// bitwise-identical to PredictSubPlansBatch. Extra trailing elements of
// dst beyond len(plans) are sliced off but remain in the backing array.
func (m *Model) AppendPredictSubPlansBatch(dst [][]float64, plans []*plan.Plan, workers int) [][]float64 {
	for len(dst) < len(plans) {
		dst = append(dst, nil)
	}
	dst = dst[:len(plans)]
	nn.ParallelFor(len(plans), workers, func(i int) {
		dst[i] = m.AppendPredictSubPlans(dst[i][:0], plans[i])
	})
	return dst
}

// PredictSubPlans returns estimated latencies (ms) for every node in DFS
// order — the parallel sub-plan prediction of Eq. (6).
func (m *Model) PredictSubPlans(p *plan.Plan) []float64 {
	return m.AppendPredictSubPlans(nil, p)
}

// AppendPredictSubPlans appends the plan's per-node latency predictions
// (DFS order) to buf and returns the extended slice — the allocation-free
// variant of PredictSubPlans for callers that recycle a result buffer: with
// enough spare capacity in buf the call performs zero allocations at steady
// state. It flattens the tree (featurize.EncodeInto) and runs the flat
// path, so results are bitwise-identical to AppendPredictSubPlansFlat.
func (m *Model) AppendPredictSubPlans(buf []float64, p *plan.Plan) []float64 {
	s := scratchPool.Get().(*scratch)
	buf = m.appendSubPlans(buf, s, m.Enc.EncodeInto(&s.enc, p))
	scratchPool.Put(s)
	return buf
}

// AppendPredictSubPlansFlat is the inference entry point of the serving
// path: featurization reads the flat DFS arrays directly
// (featurize.EncodeFlatInto), so no *plan.Node tree exists between the wire
// and the model. The caller must have validated the plan
// (plan.FlatPlan.Check): an out-of-range node type cannot be featurized.
func (m *Model) AppendPredictSubPlansFlat(buf []float64, f *plan.FlatPlan) []float64 {
	s := scratchPool.Get().(*scratch)
	buf = m.appendSubPlans(buf, s, m.Enc.EncodeFlatInto(&s.enc, f))
	scratchPool.Put(s)
	return buf
}

// appendSubPlans prices every row of enc (which lives in s) and appends the
// latencies in milliseconds; a buf without room grows once, to fit.
func (m *Model) appendSubPlans(buf []float64, s *scratch, enc *featurize.Encoded) []float64 {
	s.arena.Reset()
	pred, _ := m.forwardRaw(&s.arena, enc, enc.X.Rows, -1)
	buf = slices.Grow(buf, len(pred.Data))
	for _, v := range pred.Data {
		buf = append(buf, m.Enc.InverseLabel(v))
	}
	return buf
}

// EmbedDim is the width of the pre-trained-encoder output: h₂ plus one
// dimension carrying the model's own scaled root prediction.
func (m *Model) EmbedDim() int { return m.Cfg.Hidden[len(m.Cfg.Hidden)-2] + 1 }

// Embed returns w_E of Eq. (9): the root node's second MLP hidden state
// (h₂) — the query-plan embedding other estimators integrate — with the
// model's scaled root prediction appended. The cost-correction residual
// γ·cost lives outside h₂, so the raw hidden state alone would withhold the
// pre-trained estimator's strongest signal from the downstream model.
func (m *Model) Embed(p *plan.Plan) []float64 {
	s := scratchPool.Get().(*scratch)
	enc := m.Enc.EncodeInto(&s.enc, p)
	s.arena.Reset()
	pred, hidden := m.forwardRaw(&s.arena, enc, 1, len(m.MLP)-2)
	out := make([]float64, hidden.Cols+1)
	copy(out, hidden.Data)
	out[hidden.Cols] = pred.Data[0]
	scratchPool.Put(s)
	return out
}

// EnableLoRA attaches low-rank adapters to the MLP layers and freezes the
// base weights (attention included): subsequent training updates only ΔW,
// per Eq. (8).
func (m *Model) EnableLoRA() {
	if m.lora != nil {
		return
	}
	if len(m.Cfg.LoRARanks) != len(m.MLP) {
		panic(fmt.Sprintf("core: %d LoRA ranks for %d MLP layers", len(m.Cfg.LoRARanks), len(m.MLP)))
	}
	rng := rand.New(rand.NewSource(m.Cfg.Seed + 99))
	for i, l := range m.MLP {
		ad := nn.NewLoRADense(l, m.Cfg.LoRARanks[i], rng)
		ad.FreezeBase()
		m.lora = append(m.lora, ad)
	}
	for _, p := range m.Att.Params() {
		p.Frozen = true
	}
	m.Gamma.Frozen = true
}

// LoRAEnabled reports whether adapters are attached.
func (m *Model) LoRAEnabled() bool { return m.lora != nil }

// FineTuneLoRA adapts a pre-trained model to a new environment (across-more
// or a specific database) by training only the LoRA adapters on the given
// labeled plans. The encoder's scalers stay frozen — the pre-trained
// knowledge is reused, only the low-rank correction is learned.
func (m *Model) FineTuneLoRA(plans []*plan.Plan, lr float64, epochs int) {
	fineTune(m, plans, (*featurize.Encoder).Encode, lr, epochs)
}

// FineTuneLoRAFlat is FineTuneLoRA for the replay buffer's flat plans (each
// must have passed Check): the adapters come out bit for bit as FineTuneLoRA
// leaves them on the equivalent trees.
func (m *Model) FineTuneLoRAFlat(plans []*plan.FlatPlan, lr float64, epochs int) {
	fineTune(m, plans, (*featurize.Encoder).EncodeFlat, lr, epochs)
}

func fineTune[P any](m *Model, plans []P, encode func(*featurize.Encoder, P) *featurize.Encoded, lr float64, epochs int) {
	if m.Enc == nil {
		panic("core: fine-tuning an untrained model")
	}
	m.EnableLoRA()
	m.fit(encodeAll(m, plans, encode), lr, epochs)
}

// TrainableParams counts parameters the optimizer would currently update —
// the LoRA efficiency story in Table II.
func (m *Model) TrainableParams() int {
	n := 0
	for _, p := range m.Params() {
		if !p.Frozen {
			n += len(p.Value.Data)
		}
	}
	return n
}

// Save writes the model parameters and encoder to w.
func (m *Model) Save(w io.Writer) error {
	return saveModel(w, m.Enc, m.Params())
}

// Load restores parameters and encoder written by Save into m, attaching
// LoRA adapters when the file carries them. Load reads only m.Cfg and builds
// every parameter from it, so m may be a bare &Model{Cfg: cfg}. A config no
// model can be built from, or a file that does not fit it, is an error and
// leaves m as it was.
func (m *Model) Load(r io.Reader) error { return loadModel(r, m) }
