package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"dace/internal/featurize"
	"dace/internal/nn"
	"dace/internal/plan"
)

// modelFile is the on-disk form of a DACE model: the fitted encoder plus
// the parameter dump produced by nn.SaveParams.
type modelFile struct {
	Encoder *featurize.Encoder `json:"encoder"`
	Params  json.RawMessage    `json:"params"`
}

func saveModel(w io.Writer, enc *featurize.Encoder, params []*nn.Param) error {
	if enc == nil {
		return fmt.Errorf("core: model has no fitted encoder")
	}
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, params); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(modelFile{Encoder: enc, Params: buf.Bytes()})
}

// loraTag is in the name of every adapter parameter a dump holds:
// nn.NewLoRADense names them <layer>.lora.down and <layer>.lora.up.
var loraTag = []byte(".lora.")

// loadModel reads a file saveModel wrote into m, building the model m.Cfg
// describes. A dump that names adapter parameters attaches m's adapters, so
// a fine-tuned model's file says by itself that it carries them. The file is
// read into a model of its own first and m takes its state only once it has
// passed every check: a config the model can be built from (checkConfig), an
// encoder FitScaler could have produced — finite centers and Alpha, finite
// positive scales — and a finite prediction for a one-node scan. A file that
// fails leaves m as it was.
func loadModel(r io.Reader, m *Model) error {
	var mf modelFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return fmt.Errorf("core: decode model: %w", err)
	}
	if err := checkEncoder(mf.Encoder); err != nil {
		return err
	}
	lora := bytes.Contains(mf.Params, loraTag)
	if err := checkConfig(m.Cfg, lora, len(mf.Params)); err != nil {
		return err
	}
	c := NewModel(m.Cfg)
	if lora {
		c.EnableLoRA()
	}
	if err := nn.LoadParams(bytes.NewReader(mf.Params), c.Params()); err != nil {
		return err
	}
	c.Enc = mf.Encoder
	if v := c.Predict(loadProbe); math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("core: model predicts %v ms for a one-node scan", v)
	}
	m.Enc, m.Att, m.MLP, m.Gamma, m.lora = c.Enc, c.Att, c.MLP, c.Gamma, c.lora
	return nil
}

// loadProbe is the plan every loaded model must answer with a finite latency.
var loadProbe = &plan.Plan{Root: &plan.Node{Type: plan.SeqScan, EstRows: 1000, EstCost: 100}}

// checkConfig refuses, before anything is allocated for it, a config
// NewModel or EnableLoRA (when lora) would panic on — a negative width, a
// LoRA rank list that does not give each MLP layer a positive rank — and one
// whose parameters cannot fit in a dump of size bytes, where every value
// takes at least one. An artifact's config comes from its manifest, which no
// checksum covers.
func checkConfig(cfg Config, lora bool, size int) error {
	if cfg.DK < 0 || cfg.DV < 0 {
		return fmt.Errorf("core: config attention widths DK %d, DV %d: want non-negative", cfg.DK, cfg.DV)
	}
	if lora && len(cfg.LoRARanks) != len(cfg.Hidden) {
		return fmt.Errorf("core: config has %d LoRA ranks for %d MLP layers", len(cfg.LoRARanks), len(cfg.Hidden))
	}
	params := float64(featurize.FeatureDim) * (2*float64(cfg.DK) + float64(cfg.DV))
	in := float64(cfg.DV)
	for i, h := range cfg.Hidden {
		if h < 0 {
			return fmt.Errorf("core: config MLP layer %d width %d: want non-negative", i, h)
		}
		out := float64(h)
		params += (in + 1) * out
		if lora {
			r := cfg.LoRARanks[i]
			if r <= 0 {
				return fmt.Errorf("core: config LoRA rank %d for MLP layer %d: want positive", r, i)
			}
			params += float64(r) * (in + out)
		}
		in = out
	}
	if params > float64(size) {
		return fmt.Errorf("core: config wants %.0f parameters, a %d-byte dump cannot hold them", params, size)
	}
	return nil
}

// checkEncoder refuses an encoder FitScaler and fitEncoder cannot produce:
// missing, a non-finite center or Alpha, or a scale that is not finite and
// positive — one that would turn every prediction non-finite or constant.
func checkEncoder(e *featurize.Encoder) error {
	if e == nil {
		return fmt.Errorf("core: model file lacks encoder")
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for _, sc := range []struct {
		name string
		s    featurize.Scaler
	}{{"cost", e.Cost}, {"card", e.Card}, {"label", e.Label}} {
		if !finite(sc.s.Center) || !finite(sc.s.Scale) || sc.s.Scale <= 0 {
			return fmt.Errorf("core: encoder %s scaler %+v: want a finite center and a finite positive scale", sc.name, sc.s)
		}
	}
	if !finite(e.Alpha) {
		return fmt.Errorf("core: encoder alpha %v is not finite", e.Alpha)
	}
	return nil
}
