package core

import (
	"bytes"
	"math"
	"testing"

	"dace/internal/executor"
	"dace/internal/plan"
	"dace/internal/schema"
)

// flatOf routes a plan through JSON and the streaming decoder, the way the
// serving wire path produces FlatPlans.
func flatOf(t *testing.T, dec *plan.Decoder, p *plan.Plan) *plan.FlatPlan {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := dec.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestAppendPredictSubPlansFlatMatchesTree is the serving layer's bitwise
// parity contract: inference over a streaming-decoded FlatPlan must produce
// exactly the predictions the tree path produces.
func TestAppendPredictSubPlansFlatMatchesTree(t *testing.T) {
	plans := workloadPlans(t, schema.IMDB(), 30, executor.M1())
	cfg := smallConfig()
	cfg.Epochs = 2
	m := Train(plans, cfg)
	var dec plan.Decoder
	for _, p := range plans {
		want := m.AppendPredictSubPlans(nil, p)
		got := m.AppendPredictSubPlansFlat(nil, flatOf(t, &dec, p))
		if len(got) != len(want) {
			t.Fatalf("prediction count %d, want %d", len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("prediction %d: flat %v vs tree %v", i, got[i], want[i])
			}
		}
	}
}

// TestAppendPredictSubPlansFlatZeroAllocs mirrors the tree-path guard: with
// a recycled buffer the flat sub-plan path must be allocation-free at
// steady state.
func TestAppendPredictSubPlansFlatZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	plans := workloadPlans(t, schema.IMDB(), 40, executor.M1())
	cfg := smallConfig()
	cfg.Epochs = 2
	m := Train(plans, cfg)
	flats := make([]*plan.FlatPlan, len(plans))
	buf := make([]float64, 0, 256)
	for i, p := range plans {
		var dec plan.Decoder // fresh decoder per plan: Decode reuses its arena
		flats[i] = flatOf(t, &dec, p)
		buf = m.AppendPredictSubPlansFlat(buf[:0], flats[i])
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		buf = m.AppendPredictSubPlansFlat(buf[:0], flats[i%len(flats)])
		i++
	})
	if avg != 0 {
		t.Fatalf("AppendPredictSubPlansFlat allocates %.2f/op at steady state, want 0", avg)
	}
}

// TestFineTuneLoRAFlatMatchesTree is the write path's bitwise contract: a
// fine-tune fed the replay buffer's flat plans leaves exactly the adapters a
// fine-tune fed the equivalent trees leaves, and row 0 of the flat sub-plan
// forward — what the promotion gate prices a hold-out plan with — is Predict.
func TestFineTuneLoRAFlatMatchesTree(t *testing.T) {
	plans := workloadPlans(t, schema.IMDB(), 40, executor.M1())
	cfg := smallConfig()
	cfg.Epochs = 2
	base := Train(plans[:20], cfg)
	tune := plans[20:]
	flats := make([]*plan.FlatPlan, len(tune))
	for i, p := range tune {
		var dec plan.Decoder
		flats[i] = flatOf(t, &dec, p).Clone()
	}
	tree, flat := base.Clone(), base.Clone()
	tree.FineTuneLoRA(tune, 2e-3, 3)
	flat.FineTuneLoRAFlat(flats, 2e-3, 3)
	a, b := tree.Adapters().Params(), flat.Adapters().Params()
	for i := range a {
		for j, v := range a[i].Value.Data {
			if math.Float64bits(v) != math.Float64bits(b[i].Value.Data[j]) {
				t.Fatalf("adapter %s[%d]: tree %v vs flat %v", a[i].Name, j, v, b[i].Value.Data[j])
			}
		}
	}
	for i, p := range tune {
		if got, want := flat.AppendPredictSubPlansFlat(nil, flats[i])[0], tree.Predict(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("plan %d: row 0 of the flat forward %v vs Predict %v", i, got, want)
		}
	}
}
