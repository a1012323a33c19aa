package core

import (
	"math"
	"math/rand"
	"testing"

	"dace/internal/executor"
	"dace/internal/featurize"
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

// poison overwrites every chunk a holds with a NaN and rewinds it, so the
// next cycle's allocations are handed that NaN wherever the arena does not
// clear. Blocks of the arena's smallest chunk size tile every chunk; 4 MB of
// them is far more than one forward's working set.
func poison(t *testing.T, a *nn.Arena) {
	t.Helper()
	nan := math.Float64frombits(0x7ff8dead0badf00d)
	a.Reset()
	for i := 0; i < 512; i++ {
		for j, m := 0, a.UninitMatrix(1, 1<<10); j < len(m.Data); j++ {
			m.Data[j] = nan
		}
	}
	a.Reset()
	if probe := a.UninitMatrix(1, 1); !math.IsNaN(probe.Data[0]) {
		t.Fatal("the arena's recycled memory is not the poison just written to it")
	}
	a.Reset()
}

// TestForwardOnPoisonedArena guards the destinations forwardRaw takes
// without a clear (the Q/K/V projections) and the node values the tape does
// (nn.Tape's assigned ops): with every recycled float a NaN, the full pass,
// the root-row pass and the Scorer still reproduce the tape forward bit for
// bit, and a tape forward+backward reproduces a fresh tape's loss and
// gradients — nothing reads an element before assigning it.
func TestForwardOnPoisonedArena(t *testing.T) {
	plans := workloadPlans(t, schema.IMDB(), 60, executor.M1())
	cfg := smallConfig()
	cfg.Epochs = 2
	base := Train(plans[:40], cfg)
	tuned := base.Clone()
	tuned.FineTuneLoRA(plans[40:50], 2e-3, 1)
	for name, m := range map[string]*Model{"base": base, "lora": tuned} {
		t.Run(name, func(t *testing.T) {
			var a nn.Arena
			sc := NewScorer(m)
			recycled := nn.NewTape()
			for _, p := range plans[30:] {
				enc := m.Enc.Encode(p)
				want, _ := m.forward(nn.NewTape(), enc, -1)

				poison(t, &a)
				pred, _ := m.forwardRaw(&a, enc, enc.X.Rows, -1)
				sameBits(t, "pred", pred.Data, want.Value.Data)

				poison(t, &a)
				root, _ := m.forwardRaw(&a, enc, 1, -1)
				sameBits(t, "root pred", root.Data, want.Value.Data[:1])

				poison(t, &sc.arena)
				wantMS := make([]float64, len(want.Value.Data))
				for i, v := range want.Value.Data {
					wantMS[i] = m.Enc.InverseLabel(v)
				}
				sameBits(t, "scorer", sc.AppendScoreCandidates(nil, p.DFS()), wantMS)

				// Training's side of the same hazard: the tape takes the
				// values of copies, gathers and concatenations without a
				// clear. One forward+backward on recycled NaNs must leave the
				// loss and every gradient as a fresh tape does — an element
				// read before it is assigned comes out as a NaN gradient. The
				// adapter model runs fit's path: its cached prefix enters the
				// head as Consts, which have no gradient matrix.
				var pre *prefix
				if name == "lora" {
					var held nn.Arena
					pre = &m.prefixes([]*featurize.Encoded{enc}, &held)[0]
				}
				wantGrads := lossGrads(m, nn.NewTape(), enc, pre)
				poison(t, recycled.Arena())
				sameBits(t, "loss and gradients", lossGrads(m, recycled, enc, pre), wantGrads)
			}
		})
	}
}

// lossGrads runs one training forward+backward for enc on t and returns the
// loss followed by every parameter's gradient.
func lossGrads(m *Model, t *nn.Tape, enc *featurize.Encoded, pre *prefix) []float64 {
	for _, p := range m.Params() {
		p.Grad.Zero()
	}
	loss := m.loss(t, enc, pre)
	t.Backward(loss)
	out := []float64{loss.Value.Data[0]}
	for _, p := range m.Params() {
		out = append(out, p.Grad.Data...)
	}
	t.Reset()
	return out
}

// finishLayerRef is the single pass headRaw once finished each MLP layer
// with, kept as the reference nn.FinishDense is pinned to: per element the
// bias add, then the adapter term when ad is non-nil, then ReLU when relu
// is set, the clamp a select on the value's bits.
func finishLayerRef(out, bias, ad []float64, relu bool) {
	floor := math.Inf(-1)
	if relu {
		floor = 0
	}
	for r := 0; r < len(out); r += len(bias) {
		row := out[r : r+len(bias)]
		for j, b := range bias {
			v := row[j] + b
			if ad != nil {
				v += ad[r+j]
			}
			bits := math.Float64bits(v)
			if v < floor {
				bits = 0
			}
			row[j] = math.Float64frombits(bits)
		}
	}
}

// TestFinishDenseMatchesReference: the layer finish on the vector kernels
// against the per-element loop it replaced, with and without an adapter
// term and ReLU, at widths on both sides of the kernels' vector blocks, over
// values that include zeros of both signs, subnormals, infinities and NaN.
// Any NaN matches any NaN: which operand's payload survives NaN+NaN is the
// instruction's business.
func TestFinishDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	specials := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308, -1, 1}
	mixed := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			if rng.Intn(4) == 0 {
				s[i] = specials[rng.Intn(len(specials))]
			} else {
				s[i] = rng.NormFloat64()
			}
		}
		return s
	}
	for _, rows := range []int{1, 3, 9} {
		for _, cols := range []int{1, 3, 4, 7, 8, 16, 64, 128} {
			for _, adapter := range []bool{false, true} {
				for _, relu := range []bool{false, true} {
					out, bias := mixed(rows*cols), mixed(cols)
					var ad *nn.Matrix
					if adapter {
						ad = &nn.Matrix{Rows: rows, Cols: cols, Data: mixed(rows * cols)}
					}
					want := append([]float64(nil), out...)
					if adapter {
						finishLayerRef(want, bias, ad.Data, relu)
					} else {
						finishLayerRef(want, bias, nil, relu)
					}
					got := &nn.Matrix{Rows: rows, Cols: cols, Data: out}
					nn.FinishDense(got, &nn.Matrix{Rows: 1, Cols: cols, Data: bias}, ad, relu)
					for i := range want {
						if g, w := got.Data[i], want[i]; math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
							t.Fatalf("%d×%d adapter=%v relu=%v: element %d = %v (%#x), want %v (%#x)",
								rows, cols, adapter, relu, i, g, math.Float64bits(g), w, math.Float64bits(w))
						}
					}
				}
			}
		}
	}
}
