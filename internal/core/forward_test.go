package core

import (
	"math"
	"testing"

	"dace/internal/executor"
	"dace/internal/nn"
	"dace/internal/plan"
	"dace/internal/schema"
)

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: raw %v vs tape %v", what, i, got[i], want[i])
		}
	}
}

// TestForwardRawMatchesTape pins the one inference forward to the training
// forward: for every plan, forwardRaw over all n query rows reproduces the
// tape's predictions and h₂ bit for bit, a single query row reproduces row 0
// of them, the attention-only pass reproduces the tape's attention output
// (what fit caches under LoRA), and Embed is the tape's (h₂, pred) at the
// root — for a base model, an adapter view, a model with its own fine-tuned
// LoRA, and the full-attention ablation.
func TestForwardRawMatchesTape(t *testing.T) {
	plans := workloadPlans(t, schema.IMDB(), 200, executor.M1())
	cfg := smallConfig()
	cfg.Epochs = 2
	base := Train(plans[:40], cfg)

	tuned := base.Clone()
	tuned.FineTuneLoRA(plans[40:60], 2e-3, 2)

	noTA := cfg
	noTA.TreeAttention = false

	for _, tc := range []struct {
		name string
		m    *Model
	}{
		{"base", base},
		{"adapter-view", base.WithAdapters(tuned.Adapters())},
		{"lora", tuned},
		{"no-tree-attention", Train(plans[:40], noTA)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			h2 := len(m.MLP) - 2
			var a nn.Arena
			for _, p := range plans {
				enc := m.Enc.Encode(p)
				n := enc.X.Rows
				tape := nn.NewTape()
				wantPred, wantHidden := m.forward(tape, enc, h2)
				wantAtt := m.Att.ApplyOneHot(tape, enc.X, enc.Types, plan.NumNodeTypes, m.spansFor(enc))

				a.Reset()
				pred, hidden := m.forwardRaw(&a, enc, n, h2)
				sameBits(t, "pred", pred.Data, wantPred.Value.Data)
				sameBits(t, "h2", hidden.Data, wantHidden.Value.Data)

				root, rootHidden := m.forwardRaw(&a, enc, 1, h2)
				sameBits(t, "root pred", root.Data, wantPred.Value.Data[:1])
				sameBits(t, "root h2", rootHidden.Data, wantHidden.Value.Data[:wantHidden.Value.Cols])

				none, att := m.forwardRaw(&a, enc, n, attentionOnly)
				if none != nil {
					t.Fatal("attention-only pass returned predictions")
				}
				sameBits(t, "attention", att.Data, wantAtt.Value.Data)

				wantEmbed := append(append([]float64(nil), wantHidden.Value.Data[:wantHidden.Value.Cols]...), wantPred.Value.Data[0])
				sameBits(t, "embed", m.Embed(p), wantEmbed)
			}
		})
	}
}
