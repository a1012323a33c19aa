package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"dace/internal/featurize"
	"dace/internal/nn"
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

// loadModel reads a file saveModel wrote into m. A dump that names adapter
// parameters attaches m's adapters first, so a fine-tuned model's file says
// by itself that it carries them.
func loadModel(r io.Reader, m *Model) error {
	var mf modelFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return fmt.Errorf("core: decode model: %w", err)
	}
	if mf.Encoder == nil {
		return fmt.Errorf("core: model file lacks encoder")
	}
	if bytes.Contains(mf.Params, loraTag) {
		m.EnableLoRA()
	}
	if err := nn.LoadParams(bytes.NewReader(mf.Params), m.Params()); err != nil {
		return err
	}
	m.Enc = mf.Encoder
	return nil
}
