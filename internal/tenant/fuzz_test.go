package tenant

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dace/internal/adapt"
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

// FuzzManifest feeds arbitrary bytes through the artifact-manifest loader
// the registry uses for LoadDir and per-tenant version listings. The
// loader must never panic, and an accepted manifest must be structurally
// safe to iterate.
func FuzzManifest(f *testing.F) {
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
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := adapt.ReadManifest(dir)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("nil manifest with nil error")
		}
		// Everything the registry does with a loaded manifest must be safe:
		// scanning versions for the current pointer and formatting listings.
		for _, v := range m.Versions {
			_ = v.Version == m.Current
			_ = v.Created.IsZero()
		}
	})
}
