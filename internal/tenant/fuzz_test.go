package tenant

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dace/internal/adapt"
	"dace/internal/core"
	"dace/internal/dataset"
	"dace/internal/executor"
	"dace/internal/feedback"
	"dace/internal/plan"
	"dace/internal/schema"
	"dace/internal/wire"
)

// FuzzValidateID drives the tenant-ID validator with arbitrary byte
// strings. Accepted IDs must uphold the safety contract the rest of the
// system relies on: they are short, drawn from the path-safe charset, and
// can never name a directory outside the tenants root.
func FuzzValidateID(f *testing.F) {
	for _, seed := range []string{
		"", "airline", "tpch_sf10", "a.b-c_d", ".", "..", "...",
		"a/b", "a\\b", "a b", "x\r\ny", "..airline", "airline..",
		strings.Repeat("z", wire.MaxTenantIDLen), strings.Repeat("z", wire.MaxTenantIDLen+1),
		"\x00", "é", "..\x2fescape",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, id string) {
		if err := wire.ValidateTenantID(id); err != nil {
			return
		}
		if len(id) == 0 || len(id) > wire.MaxTenantIDLen {
			t.Fatalf("accepted id with length %d", len(id))
		}
		for i := 0; i < len(id); i++ {
			c := id[i]
			switch {
			case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
				c == '.', c == '_', c == '-':
			default:
				t.Fatalf("accepted id %q with byte %q outside the charset", id, c)
			}
		}
		// An accepted ID joined under a root must stay a direct child of
		// that root — no traversal, no aliasing to the root itself.
		joined := filepath.Join("root", id)
		if filepath.Dir(joined) != "root" || joined == "root" {
			t.Fatalf("accepted id %q escapes its root: Join = %q", id, joined)
		}
	})
}

// FuzzManifest feeds arbitrary bytes through the artifact manifest, next to
// one real saved LoRA artifact, and on through the load that puts a version
// into service: ReadManifest, then Controller.Load(current) on tenant zero.
// Neither may panic; an accepted manifest must be safe to iterate, and a
// model Load puts into service must predict a finite latency. The seeds
// include the artifact's own manifest and two entries whose config (which no
// checksum covers) builds no model: a negative DK, and one LoRA rank for
// three MLP layers.
func FuzzManifest(f *testing.F) {
	samples, err := dataset.ComplexWorkload(schema.BenchmarkDB("airline"), 20, executor.M1())
	if err != nil {
		f.Fatal(err)
	}
	cfg := smallConfig()
	cfg.DK, cfg.DV, cfg.Hidden, cfg.LoRARanks, cfg.Epochs = 8, 8, []int{8, 4, 1}, []int{2, 2, 1}, 1
	seed := core.Train(dataset.Plans(samples), cfg)
	tuned := seed.Clone()
	tuned.EnableLoRA()
	saved := f.TempDir()
	if _, err := adapt.SaveVersion(saved, tuned, ""); err != nil {
		f.Fatal(err)
	}
	artifact, err := os.ReadFile(filepath.Join(saved, "v1.dace"))
	if err != nil {
		f.Fatal(err)
	}
	for _, edit := range []func(*core.Config){
		func(*core.Config) {},
		func(c *core.Config) { c.DK = -5 },
		func(c *core.Config) { c.LoRARanks = []int{1} },
	} {
		man, err := adapt.ReadManifest(saved)
		if err != nil {
			f.Fatal(err)
		}
		edit(&man.Versions[0].Config)
		data, err := json.Marshal(man)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range []string{
		``,
		`{}`,
		`{"current":1,"versions":[{"version":1,"file":"v1.dace","crc32":0,"lora":true}]}`,
		`{"current":-1,"versions":null}`,
		`{"current":9999999999999999999999}`,
		`[1,2,3]`,
		`{"versions":[{"file":"../../../etc/passwd"}]}`,
		"\x00\x01\x02",
		`{"current":1,"versions":[{"created":"not-a-time"}]}`,
	} {
		f.Add([]byte(seed))
	}
	probe := &plan.Plan{Root: &plan.Node{Type: plan.SeqScan, EstRows: 1000, EstCost: 100}}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "v1.dace"), artifact, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := adapt.ReadManifest(dir)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("nil manifest with nil error")
		}
		for _, v := range m.Versions {
			_ = v.Version == m.Current
			_ = v.Created.IsZero()
		}
		zero := New(seed, feedback.NewStore(1, 1), nil, Config{Adapt: adapt.Config{ModelDir: dir}}).Zero()
		if _, err := zero.Load(m.Current); err != nil {
			return
		}
		served, _ := zero.Served()
		if v := served.Predict(probe); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("version %d went into service predicting %v", m.Current, v)
		}
	})
}
