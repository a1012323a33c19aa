package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"dace/internal/executor"
	"dace/internal/nn"
	"dace/internal/schema"
)

// paramsDigest is the sha256 of the Float64bits of every parameter value, in
// Params order, little-endian.
func paramsDigest(ps []*nn.Param) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range ps {
		for _, v := range p.Value.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Golden digests of the weights a fixed small pre-train and a fixed LoRA
// fine-tune on top of it leave behind, at the default (benchmark) shapes.
// They pin every trained bit, for every worker count: a change to how a
// minibatch's gradient is formed, reduced, clipped or stepped that moves one
// bit of one weight fails here. Recomputing them is a decision to change the
// trained model, not a test fix.
const (
	goldenTrain    = "9e6685d5664e0878072df75a18521dcfd483687e7e8ef05c985f87bf72a56819"
	goldenFineTune = "fd41edfd81cc6f0d95235e6c4138082786c5bc3a6127c141867c5da758a05e00"
)

func TestTrainingGoldenDigests(t *testing.T) {
	m1 := workloadPlans(t, schema.BenchmarkDB("airline"), 40, executor.M1())
	m2 := workloadPlans(t, schema.BenchmarkDB("airline"), 24, executor.M2())
	for _, workers := range []int{1, 2, 8} {
		cfg := DefaultConfig()
		cfg.Epochs = 2
		cfg.Workers = workers
		base := Train(m1, cfg)
		if got := paramsDigest(base.Params()); got != goldenTrain {
			t.Errorf("workers=%d: Train digest %s, want %s", workers, got, goldenTrain)
		}
		tuned := base.Clone()
		tuned.FineTuneLoRA(m2, 2e-3, 2)
		if got := paramsDigest(tuned.Params()); got != goldenFineTune {
			t.Errorf("workers=%d: Clone + FineTuneLoRA digest %s, want %s", workers, got, goldenFineTune)
		}
	}
}

// TestFineTuneLeavesFrozenGradientsZero: a frozen parameter costs a LoRA
// step nothing — no adjoint forms its gradient, the clip does not square it
// and Adam does not clear it — so after a fine-tune every frozen gradient
// is still the +0 it was cloned with, and every trainable one is the +0
// the last step cleared it to.
func TestFineTuneLeavesFrozenGradientsZero(t *testing.T) {
	m1 := workloadPlans(t, schema.BenchmarkDB("airline"), 24, executor.M1())
	m2 := workloadPlans(t, schema.BenchmarkDB("airline"), 24, executor.M2())
	cfg := smallConfig()
	cfg.Epochs = 2
	cfg.Workers = 2
	tuned := Train(m1, cfg).Clone()
	tuned.FineTuneLoRA(m2, 2e-3, 2)
	frozen := 0
	for _, p := range tuned.Params() {
		if p.Frozen {
			frozen++
		}
		for j, g := range p.Grad.Data {
			if math.Float64bits(g) != 0 {
				t.Fatalf("%s (frozen %v): gradient[%d] = %v after the fine-tune, want +0", p.Name, p.Frozen, j, g)
			}
		}
	}
	if frozen == 0 {
		t.Fatal("the fine-tune froze nothing")
	}
}
