// The encoder/adapter split. DACE's across-databases story is one shared
// pre-trained encoder plus a cheap per-database LoRA fine-tune of the MLP
// head (Eq. 8) — so the per-database state is tiny: the low-rank head
// deltas. AdapterSet extracts exactly that state as a standalone value, and
// WithAdapters attaches it to a model for prediction WITHOUT cloning the
// encoder: the returned view shares the attention block, the MLP base, γ,
// and the fitted encoder with the original, so N tenants cost N adapter
// sets, not N models.
package core

import (
	"fmt"
	"math/rand"

	"dace/internal/nn"
)

// AdapterLayer is one MLP layer's low-rank head delta: the LoRA factor pair
// ΔW = Down·Up·Scale of Eq. (8).
type AdapterLayer struct {
	Down  *nn.Param // in×rank ("W_B")
	Up    *nn.Param // rank×out ("W_A"); zero until fine-tuned, so the delta starts as a no-op
	Rank  int
	Scale float64
}

// AdapterSet is the complete per-tenant adaptation state: one low-rank
// delta per MLP layer. It is a plain value — attach it with
// Model.WithAdapters, detach a trained one with Model.Adapters. An
// AdapterSet is only meaningful against the base model whose layer shapes
// it was built for (CompatibleWith checks).
type AdapterSet struct {
	Layers []AdapterLayer
}

// NewAdapterSet builds a fresh adapter set for cfg's MLP shape, initialized
// exactly as EnableLoRA initializes a model's own adapters (Down Xavier
// from the seed-derived stream, Up zero): attaching it changes no
// prediction until it is fine-tuned.
func NewAdapterSet(cfg Config, seed int64) *AdapterSet {
	if len(cfg.LoRARanks) != len(cfg.Hidden) {
		panic(fmt.Sprintf("core: %d LoRA ranks for %d MLP layers", len(cfg.LoRARanks), len(cfg.Hidden)))
	}
	rng := rand.New(rand.NewSource(seed + 99))
	as := &AdapterSet{Layers: make([]AdapterLayer, len(cfg.Hidden))}
	in := cfg.DV
	for i, out := range cfg.Hidden {
		rank := cfg.LoRARanks[i]
		if rank <= 0 {
			panic(fmt.Sprintf("core: LoRA rank %d invalid for layer %d", rank, i))
		}
		name := fmt.Sprintf("dace.mlp.%d", i)
		l := AdapterLayer{
			Down:  nn.NewParam(name+".W.lora.down", in, rank),
			Up:    nn.NewParam(name+".W.lora.up", rank, out),
			Rank:  rank,
			Scale: 1.0 / float64(rank),
		}
		nn.XavierInit(l.Down.Value, in, rank, rng)
		as.Layers[i] = l
		in = out
	}
	return as
}

// CompatibleWith reports whether the adapter set matches m's MLP shape.
func (as *AdapterSet) CompatibleWith(m *Model) error {
	if len(as.Layers) != len(m.MLP) {
		return fmt.Errorf("core: adapter set has %d layers, model has %d", len(as.Layers), len(m.MLP))
	}
	for i, l := range as.Layers {
		if l.Down == nil || l.Up == nil {
			return fmt.Errorf("core: adapter layer %d is missing a factor", i)
		}
		in, out := m.MLP[i].In(), m.MLP[i].Out()
		if l.Down.Value.Rows != in || l.Down.Value.Cols != l.Rank ||
			l.Up.Value.Rows != l.Rank || l.Up.Value.Cols != out {
			return fmt.Errorf("core: adapter layer %d is %dx%d·%dx%d, model layer wants %dx%d·%dx%d",
				i, l.Down.Value.Rows, l.Down.Value.Cols, l.Up.Value.Rows, l.Up.Value.Cols,
				in, l.Rank, l.Rank, out)
		}
	}
	return nil
}

// Adapters returns the model's attached adapter state as an AdapterSet
// sharing the model's parameter storage (nil when LoRA is not enabled).
// Detach it from a fine-tuned candidate with Clone, or hand it straight to
// the base model's WithAdapters when the candidate is discarded anyway.
func (m *Model) Adapters() *AdapterSet {
	if m.lora == nil {
		return nil
	}
	as := &AdapterSet{Layers: make([]AdapterLayer, len(m.lora))}
	for i, ad := range m.lora {
		as.Layers[i] = AdapterLayer{Down: ad.Down, Up: ad.Up, Rank: ad.Rank, Scale: ad.Scale}
	}
	return as
}

// WithAdapters attaches as to the model for prediction without cloning the
// encoder: the returned view shares the attention block, γ, the MLP base
// weights, and the fitted encoder with m, and owns only the adapter
// wrappers. Predictions through the view are bitwise-identical to a full
// clone carrying the same adapter values, at the resident cost of the
// adapter set alone.
//
// The view is read-only with respect to the shared parameters: Predict and
// friends never write them, so any number of views (and m itself) can serve
// concurrently. To fine-tune, Clone the view — the clone deep-copies base
// and adapters, and inherits the base's Frozen flags, so training it
// updates only its own adapter copies (Freeze m first if it was never
// LoRA-enabled).
func (m *Model) WithAdapters(as *AdapterSet) *Model {
	if err := as.CompatibleWith(m); err != nil {
		panic(err.Error())
	}
	v := &Model{
		Cfg:   m.Cfg,
		Enc:   m.Enc,
		Att:   m.Att,
		Gamma: m.Gamma,
		MLP:   m.MLP,
		lora:  make([]*nn.LoRADense, len(m.MLP)),
	}
	for i, l := range as.Layers {
		v.lora[i] = &nn.LoRADense{Base: m.MLP[i], Down: l.Down, Up: l.Up, Rank: l.Rank, Scale: l.Scale}
	}
	return v
}

// Freeze marks every base parameter (attention, γ, MLP weights) untrainable
// — the shared-encoder contract for multi-tenant serving: clones of
// adapter views fine-tune only their adapter copies. Prediction is
// unaffected. EnableLoRA does this implicitly; Freeze covers base models
// that never enable their own adapters.
func (m *Model) Freeze() {
	for _, p := range m.Att.Params() {
		p.Frozen = true
	}
	m.Gamma.Frozen = true
	for _, l := range m.MLP {
		l.W.Frozen = true
		l.B.Frozen = true
	}
}
