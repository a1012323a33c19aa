package core

import (
	"bytes"
	"math"
	"testing"

	"dace/internal/dataset"
	"dace/internal/executor"
	"dace/internal/featurize"
	"dace/internal/metrics"
	"dace/internal/nn"
	"dace/internal/plan"
	"dace/internal/schema"
)

// smallConfig keeps unit tests fast.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.DK, cfg.DV = 32, 32
	cfg.Hidden = []int{32, 16, 1}
	cfg.LoRARanks = []int{8, 4, 2}
	cfg.Epochs = 12
	return cfg
}

func workloadPlans(t *testing.T, db *schema.Database, n int, m executor.Machine) []*plan.Plan {
	t.Helper()
	samples, err := dataset.ComplexWorkload(db, n, m)
	if err != nil {
		t.Fatal(err)
	}
	return dataset.Plans(samples)
}

func medianQError(m *Model, plans []*plan.Plan) float64 {
	var qs []float64
	for _, p := range plans {
		qs = append(qs, metrics.QError(m.Predict(p), p.Root.ActualMS))
	}
	return metrics.Summarize(qs).Median
}

func TestTrainReducesQError(t *testing.T) {
	plans := workloadPlans(t, schema.IMDB(), 150, executor.M1())
	train, test := plans[:120], plans[120:]
	m := Train(train, smallConfig())
	med := medianQError(m, test)
	if med > 2.5 {
		t.Fatalf("within-database median q-error %v too high; model did not learn", med)
	}
}

func TestAcrossDatabaseGeneralization(t *testing.T) {
	// Train on three databases, test on an unseen one: the pre-trained
	// estimator protocol. The EDQO must transfer.
	var train []*plan.Plan
	for _, name := range []string{"airline", "walmart", "financial"} {
		train = append(train, workloadPlans(t, schema.BenchmarkDB(name), 80, executor.M1())...)
	}
	test := workloadPlans(t, schema.BenchmarkDB("baseball"), 60, executor.M1())
	m := Train(train, smallConfig())
	med := medianQError(m, test)
	if med > 3.5 {
		t.Fatalf("across-database median q-error %v; EDQO did not transfer", med)
	}
	// And it must beat the raw optimizer cost read as a latency predictor
	// via the best single scale factor (the PostgreSQL baseline).
	pgMed := postgresBaselineMedian(train, test)
	if med > pgMed*1.5 {
		t.Fatalf("DACE (%v) much worse than scaled PostgreSQL cost (%v)", med, pgMed)
	}
}

// postgresBaselineMedian fits log(ms) = a + b·log(cost) on train and
// reports the median q-error on test.
func postgresBaselineMedian(train, test []*plan.Plan) float64 {
	var sx, sy, sxx, sxy, n float64
	for _, p := range train {
		x, y := math.Log(p.Root.EstCost), math.Log(p.Root.ActualMS)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	b := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	a := (sy - b*sx) / n
	var qs []float64
	for _, p := range test {
		pred := math.Exp(a + b*math.Log(p.Root.EstCost))
		qs = append(qs, metrics.QError(pred, p.Root.ActualMS))
	}
	return metrics.Summarize(qs).Median
}

func TestPredictSubPlansShapeAndPositivity(t *testing.T) {
	plans := workloadPlans(t, schema.IMDB(), 60, executor.M1())
	m := Train(plans[:50], smallConfig())
	for _, p := range plans[50:] {
		preds := m.PredictSubPlans(p)
		if len(preds) != p.NodeCount() {
			t.Fatalf("got %d sub-plan predictions for %d nodes", len(preds), p.NodeCount())
		}
		for _, v := range preds {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("invalid sub-plan prediction %v", v)
			}
		}
		if preds[0] != m.Predict(p) {
			t.Fatal("Predict must equal the root sub-plan prediction")
		}
	}
}

func TestTreeAttentionMaskRestrictsInformation(t *testing.T) {
	// With tree attention, a leaf's prediction must not change when a
	// *sibling* subtree changes (the mask hides non-descendants).
	plans := workloadPlans(t, schema.IMDB(), 60, executor.M1())
	m := Train(plans[:40], smallConfig())
	var p *plan.Plan
	for _, cand := range plans[40:] {
		if cand.Root.Type == plan.Gather || len(cand.DFS()) < 5 {
			continue
		}
		if j := findJoin(cand.Root); j != nil {
			p = cand
			break
		}
	}
	if p == nil {
		t.Skip("no suitable joined plan in sample")
	}
	join := findJoin(p.Root)
	nodes := p.DFS()
	// Index of the left child's subtree root and of the right child.
	leftIdx := indexOf(nodes, join.Children[0])
	before := m.PredictSubPlans(p)[leftIdx]
	join.Children[1].EstCost *= 100 // mutate the sibling subtree
	after := m.PredictSubPlans(p)[leftIdx]
	if math.Abs(before-after) > 1e-9*(1+math.Abs(before)) {
		t.Fatalf("left subtree prediction changed (%v→%v) when sibling changed; mask leaks", before, after)
	}
	// Sanity: the root prediction must change (it dominates both children).
	rootBefore := before
	_ = rootBefore
}

func findJoin(n *plan.Node) *plan.Node {
	if n.Type.IsJoin() {
		return n
	}
	for _, c := range n.Children {
		if j := findJoin(c); j != nil {
			return j
		}
	}
	return nil
}

func indexOf(nodes []*plan.Node, target *plan.Node) int {
	for i, n := range nodes {
		if n == target {
			return i
		}
	}
	return -1
}

func TestNoTreeAttentionLeaks(t *testing.T) {
	// The w/o TA ablation: with a full mask, sibling changes DO propagate.
	cfg := smallConfig()
	cfg.TreeAttention = false
	plans := workloadPlans(t, schema.IMDB(), 50, executor.M1())
	m := Train(plans[:40], cfg)
	var p *plan.Plan
	for _, cand := range plans[40:] {
		if findJoin(cand.Root) != nil {
			p = cand
			break
		}
	}
	if p == nil {
		t.Skip("no joined plan")
	}
	join := findJoin(p.Root)
	nodes := p.DFS()
	leftIdx := indexOf(nodes, join.Children[0])
	before := m.PredictSubPlans(p)[leftIdx]
	join.Children[1].EstCost *= 100
	after := m.PredictSubPlans(p)[leftIdx]
	if before == after {
		t.Fatal("w/o TA model should propagate sibling information")
	}
}

func TestLoRAFineTuneAdaptsAcrossMore(t *testing.T) {
	db := schema.BenchmarkDB("airline")
	m1Plans := workloadPlans(t, db, 150, executor.M1())
	m2Plans := workloadPlans(t, db, 150, executor.M2())
	m := Train(m1Plans[:120], smallConfig())

	beforeMed := medianQError(m, m2Plans[120:])
	base := snapshot(m.MLP)
	m.FineTuneLoRA(m2Plans[:120], 2e-3, 12)
	afterMed := medianQError(m, m2Plans[120:])

	if !equalSnapshots(base, snapshot(m.MLP)) {
		t.Fatal("LoRA fine-tune modified frozen base weights")
	}
	if afterMed >= beforeMed {
		t.Fatalf("LoRA fine-tune did not help on M2: %v → %v", beforeMed, afterMed)
	}
	// Only the adapters (plus nothing else) are trainable now.
	total := nn.NumParams(m.Params())
	if tr := m.TrainableParams(); tr >= total/2 {
		t.Fatalf("LoRA should train a small fraction of parameters: %d of %d", tr, total)
	}
}

func snapshot(layers []*nn.Dense) []*nn.Matrix {
	var out []*nn.Matrix
	for _, l := range layers {
		out = append(out, l.W.Value.Clone(), l.B.Value.Clone())
	}
	return out
}

func equalSnapshots(a, b []*nn.Matrix) bool {
	for i := range a {
		for j := range a[i].Data {
			if a[i].Data[j] != b[i].Data[j] {
				return false
			}
		}
	}
	return true
}

func TestEmbedIsDeterministicAndSized(t *testing.T) {
	plans := workloadPlans(t, schema.IMDB(), 40, executor.M1())
	m := Train(plans[:30], smallConfig())
	e1 := m.Embed(plans[35])
	e2 := m.Embed(plans[35])
	if len(e1) != m.EmbedDim() {
		t.Fatalf("embedding dim %d, want %d", len(e1), m.EmbedDim())
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("Embed not deterministic")
		}
	}
	var nonzero bool
	for _, v := range e1 {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("embedding is all zeros")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	plans := workloadPlans(t, schema.IMDB(), 40, executor.M1())
	m := Train(plans[:30], smallConfig())
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewModel(smallConfig())
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	p := plans[35]
	if a, b := m.Predict(p), m2.Predict(p); a != b {
		t.Fatalf("loaded model predicts %v, original %v", b, a)
	}
}

// TestLoadAttachesLoRA: a model file says whether it carries adapters. A
// fine-tuned model loads into a plain NewModel with its adapters attached
// and predicts bit for bit what it did when saved; a pre-trained file still
// loads with adapters off.
func TestLoadAttachesLoRA(t *testing.T) {
	plans := workloadPlans(t, schema.IMDB(), 40, executor.M1())
	m := Train(plans[:30], smallConfig())
	var plain bytes.Buffer
	if err := m.Save(&plain); err != nil {
		t.Fatal(err)
	}
	m.FineTuneLoRA(plans[30:36], 2e-3, 3)
	var tuned bytes.Buffer
	if err := m.Save(&tuned); err != nil {
		t.Fatal(err)
	}

	m2 := NewModel(smallConfig())
	if err := m2.Load(&tuned); err != nil {
		t.Fatalf("load a fine-tuned file into a plain model: %v", err)
	}
	if !m2.LoRAEnabled() {
		t.Fatal("loaded fine-tuned model has no adapters attached")
	}
	for _, p := range plans[30:] {
		a, b := m.PredictSubPlans(p), m2.PredictSubPlans(p)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("sub-plan %d: loaded model predicts %v, saved %v", i, b[i], a[i])
			}
		}
	}

	m3 := NewModel(smallConfig())
	if err := m3.Load(&plain); err != nil {
		t.Fatal(err)
	}
	if m3.LoRAEnabled() {
		t.Fatal("a pre-trained file attached adapters")
	}
}

func TestLoadErrors(t *testing.T) {
	m := NewModel(smallConfig())
	if err := m.Load(bytes.NewBufferString("{bad")); err == nil {
		t.Fatal("expected decode error")
	}
	if err := m.Load(bytes.NewBufferString(`{"params": []}`)); err == nil {
		t.Fatal("expected missing-encoder error")
	}
}

func TestSaveRequiresTraining(t *testing.T) {
	m := NewModel(smallConfig())
	var buf bytes.Buffer
	if err := m.Save(&buf); err == nil {
		t.Fatal("saving an untrained model should fail")
	}
}

func TestModelSizeIsTiny(t *testing.T) {
	// The paper's Table II: DACE is ~0.064 MB. With the full configuration
	// the reproduction should stay within the same order of magnitude.
	m := NewModel(DefaultConfig())
	mb := nn.SizeMB(m.Params())
	if mb > 0.25 {
		t.Fatalf("DACE model is %.3f MB; the paper's point is that it is tiny", mb)
	}
}

func TestFineTuneUntrainedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewModel(smallConfig()).FineTuneLoRA(nil, 1e-3, 1)
}

func TestGradCheckDACELoss(t *testing.T) {
	// End-to-end gradient check through attention + mask + MLP + weighted loss.
	cfg := smallConfig()
	cfg.DK, cfg.DV = 8, 8
	cfg.Hidden = []int{8, 4, 1}
	m := NewModel(cfg)
	plans := workloadPlans(t, schema.IMDB(), 3, executor.M1())
	m.Enc = featurize.FitEncoder(plans, cfg.Alpha)
	enc := m.Enc.Encode(plans[0])
	worst := nn.GradCheck(m.Params(), func(tp *nn.Tape) *nn.Node {
		return m.loss(tp, enc, nil)
	})
	if worst > 1e-4 {
		t.Fatalf("DACE loss gradient check failed: %v", worst)
	}
}

// TestAppendPredictSubPlansMatches pins the append variant to the
// allocating one: identical (bitwise) predictions, buffer prefix preserved,
// and correct behaviour when the buffer is reused across plans.
func TestAppendPredictSubPlansMatches(t *testing.T) {
	plans := workloadPlans(t, schema.IMDB(), 12, executor.M1())
	cfg := smallConfig()
	cfg.Epochs = 2
	m := Train(plans, cfg)

	buf := []float64{-1, -2} // sentinel prefix must survive untouched
	for _, p := range plans {
		want := m.PredictSubPlans(p)
		buf = m.AppendPredictSubPlans(buf[:2], p)
		if buf[0] != -1 || buf[1] != -2 {
			t.Fatal("AppendPredictSubPlans clobbered the buffer prefix")
		}
		got := buf[2:]
		if len(got) != len(want) {
			t.Fatalf("append returned %d preds, PredictSubPlans %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pred %d: append %v vs alloc %v (must be bitwise equal)", i, got[i], want[i])
			}
		}
	}
}
