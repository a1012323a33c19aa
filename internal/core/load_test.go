package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"dace/internal/dataset"
	"dace/internal/executor"
	"dace/internal/featurize"
	"dace/internal/schema"
)

// savedModels trains a small model and returns its Save output before and
// after a LoRA fine-tune.
func savedModels(t testing.TB) (plain, lora []byte) {
	t.Helper()
	samples, err := dataset.ComplexWorkload(schema.IMDB(), 30, executor.M1())
	if err != nil {
		t.Fatal(err)
	}
	plans := dataset.Plans(samples)
	cfg := smallConfig()
	cfg.Epochs = 2
	m := Train(plans[:24], cfg)
	var a, b bytes.Buffer
	if err := m.Save(&a); err != nil {
		t.Fatal(err)
	}
	m.FineTuneLoRA(plans[24:], 2e-3, 1)
	if err := m.Save(&b); err != nil {
		t.Fatal(err)
	}
	return a.Bytes(), b.Bytes()
}

// zeroScale rewrites one encoder scaler of a saved model to scale 0: a file
// FitScaler never produces, which used to load.
func zeroScale(t testing.TB, saved []byte, scaler string) []byte {
	t.Helper()
	var file map[string]json.RawMessage
	var enc map[string]json.RawMessage
	var sc featurize.Scaler
	if err := json.Unmarshal(saved, &file); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(file["encoder"], &enc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(enc[scaler], &sc); err != nil {
		t.Fatal(err)
	}
	sc.Scale = 0
	var err error
	if enc[scaler], err = json.Marshal(sc); err != nil {
		t.Fatal(err)
	}
	if file["encoder"], err = json.Marshal(enc); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// loadRefusesZeroScale: the file is refused and the model it was loaded
// into is left as it was.
func loadRefusesZeroScale(t *testing.T, scaler string) {
	plain, _ := savedModels(t)
	if err := NewModel(smallConfig()).Load(bytes.NewReader(plain)); err != nil {
		t.Fatalf("the unedited file: %v", err)
	}
	m := NewModel(smallConfig())
	w := m.Params()[0].Value.Data[0]
	if err := m.Load(bytes.NewReader(zeroScale(t, plain, scaler))); err == nil {
		t.Fatalf("a %s scaler with scale 0 loaded", scaler)
	}
	if m.Enc != nil || m.Params()[0].Value.Data[0] != w {
		t.Fatal("a refused file changed the model")
	}
}

// A zero cost scale made every /predict answer 400 "non-finite prediction".
func TestLoadRefusesZeroCostScale(t *testing.T) { loadRefusesZeroScale(t, "cost") }

// A zero label scale made every sub-plan predict the same latency.
func TestLoadRefusesZeroLabelScale(t *testing.T) { loadRefusesZeroScale(t, "label") }

// FuzzModelLoad: on arbitrary bytes Load returns an error or a model that
// answers the one-node scan with a finite latency — never a panic, never a
// model that fails every request.
func FuzzModelLoad(f *testing.F) {
	plain, lora := savedModels(f)
	for _, seed := range [][]byte{plain, lora, zeroScale(f, plain, "cost"), zeroScale(f, plain, "label")} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewModel(smallConfig())
		if err := m.Load(bytes.NewReader(data)); err != nil {
			return
		}
		if v := m.Predict(loadProbe); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("loaded model predicts %v", v)
		}
	})
}
