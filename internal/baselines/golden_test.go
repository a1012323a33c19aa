package baselines

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"dace/internal/nn"
)

// paramsDigest is the sha256 of the Float64bits of every parameter value, in
// params order, little-endian.
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

// TestTrainLoopGoldenDigests pins every bit trainLoop leaves in each
// learned baseline, for every worker count. Between them the five reach the
// parameters through every op a model uses: QueryFormer through MatMul,
// AddRow, SelectRows, ScaleConst and LayerNorm, QPPNet and TPool by applying
// one weight to many plan nodes in a single loss. Recomputing a digest is a
// decision to change the trained model, not a test fix.
func TestTrainLoopGoldenDigests(t *testing.T) {
	env, samples := testEnv(t, 40)
	golden := []struct {
		name   string
		digest string
		train  func(workers int) []*nn.Param
	}{
		{"QueryFormer", "77972367db9a625d00fc4afb1056bdffa0f01343bf55dd1df102bfb93a71e744", func(w int) []*nn.Param {
			m := NewQueryFormer(env)
			m.Epochs, m.Workers = 2, w
			must(t, m.Train(samples))
			return m.params()
		}},
		{"QPPNet", "b6bdf9bb01d3d93540751349f27bcc1b97cab9af3b80beaaceb2012cb5e43eac", func(w int) []*nn.Param {
			m := NewQPPNet(env)
			m.Epochs, m.Workers = 2, w
			must(t, m.Train(samples))
			return m.params()
		}},
		{"MSCN", "10ad276f656f39b09447018acc35a274244892d02772dcdf75ac88394a3ecc24", func(w int) []*nn.Param {
			m := NewMSCN(env)
			m.Epochs, m.Workers = 2, w
			must(t, m.Train(samples))
			return m.params()
		}},
		{"TPool", "4e5d2ff7480cf0c941ba92286dfc51de528d2c4d5f246607312be04029619e54", func(w int) []*nn.Param {
			m := NewTPool(env)
			m.Epochs, m.Workers = 2, w
			must(t, m.Train(samples))
			return m.params()
		}},
		{"Zero-Shot", "2733eee8c712e5f5cd5e0db0e4e0560ab5178833e19671dbaca122ba9113a517", func(w int) []*nn.Param {
			m := NewZeroShot(env)
			m.Epochs, m.Workers = 2, w
			must(t, m.Train(samples))
			return m.params()
		}},
	}
	for _, g := range golden {
		for _, workers := range []int{1, 2, 8} {
			if got := paramsDigest(g.train(workers)); got != g.digest {
				t.Errorf("%s, workers=%d: digest %s, want %s", g.name, workers, got, g.digest)
			}
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
