package adapt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"dace/internal/core"
)

// The artifact store persists every promoted model as a versioned,
// checksummed file plus a manifest, so a bad promotion is one Rollback away
// and a restarted daemon resumes the version it was serving instead of the
// original seed. Controller.Load is the one reader that puts a version into
// service; nothing outside this package deserializes an artifact.
//
// Layout under the model directory:
//
//	manifest.json   — Manifest: current version + per-version metadata
//	v1.dace         — core.Model.Save output (encoder + framed params)
//	v2.dace
//	...
//
// Both the model file and the manifest are written to a temp file and
// renamed into place, so a crash mid-promotion leaves the previous state
// intact; the per-version CRC32 is verified on every load.

// Version describes one persisted model artifact.
type Version struct {
	Version int         `json:"version"`
	File    string      `json:"file"`
	CRC32   uint32      `json:"crc32"`
	LoRA    bool        `json:"lora"`
	Config  core.Config `json:"config"`
	Created time.Time   `json:"created"`
	Note    string      `json:"note,omitempty"`
}

// Manifest indexes the artifact directory.
type Manifest struct {
	Current  int       `json:"current"`
	Versions []Version `json:"versions"`
}

const manifestFile = "manifest.json"

// ReadManifest loads the manifest, returning fs.ErrNotExist (wrapped) when
// the directory has never held a promotion.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("adapt: manifest: %w", err)
	}
	return &m, nil
}

func writeManifest(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(dir, manifestFile), data)
}

// atomicWrite writes data to path via a temp file + rename, so readers
// never observe a half-written file.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// SaveVersion persists m as the next version in dir, updates the manifest's
// current pointer, and returns the new version number. The note travels
// into the manifest — the controller records the gate metrics there.
func SaveVersion(dir string, m *core.Model, note string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	man, err := ReadManifest(dir)
	if err != nil {
		if !os.IsNotExist(err) {
			return 0, err
		}
		man = &Manifest{}
	}
	next := 1
	if n := len(man.Versions); n > 0 {
		next = man.Versions[n-1].Version + 1
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return 0, fmt.Errorf("adapt: serialize v%d: %w", next, err)
	}
	file := fmt.Sprintf("v%d.dace", next)
	if err := atomicWrite(filepath.Join(dir, file), buf.Bytes()); err != nil {
		return 0, fmt.Errorf("adapt: write v%d: %w", next, err)
	}
	man.Versions = append(man.Versions, Version{
		Version: next,
		File:    file,
		CRC32:   crc32.ChecksumIEEE(buf.Bytes()),
		LoRA:    m.LoRAEnabled(),
		Config:  m.Cfg,
		Created: time.Now().UTC(),
		Note:    note,
	})
	man.Current = next
	if err := writeManifest(dir, man); err != nil {
		return 0, fmt.Errorf("adapt: manifest update for v%d: %w", next, err)
	}
	return next, nil
}

// loadVersion reconstructs the model stored as version v in dir, verifying
// the artifact's checksum before deserializing.
func loadVersion(dir string, v int) (*core.Model, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	var entry *Version
	for i := range man.Versions {
		if man.Versions[i].Version == v {
			entry = &man.Versions[i]
			break
		}
	}
	if entry == nil {
		return nil, fmt.Errorf("adapt: version %d not in manifest", v)
	}
	data, err := os.ReadFile(filepath.Join(dir, entry.File))
	if err != nil {
		return nil, err
	}
	if got := crc32.ChecksumIEEE(data); got != entry.CRC32 {
		return nil, fmt.Errorf("adapt: artifact %s checksum %08x, manifest says %08x (corrupted)", entry.File, got, entry.CRC32)
	}
	// The checksum does not cover entry.Config: Load checks it before it
	// builds anything.
	m := &core.Model{Cfg: entry.Config}
	if err := m.Load(bytes.NewReader(data)); err != nil {
		return nil, fmt.Errorf("adapt: load %s: %w", entry.File, err)
	}
	return m, nil
}

// setCurrent points the manifest at version v — the version a restart
// resumes. Version 0 is the seed: a directory that has never held a
// promotion has no pointer to move for it.
func setCurrent(dir string, v int) error {
	man, err := ReadManifest(dir)
	if err != nil {
		if v == 0 && errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	if man.Current == v {
		return nil
	}
	man.Current = v
	return writeManifest(dir, man)
}

// previousVersion names the version preceding the manifest's current one,
// and refuses to step back past the first.
func previousVersion(dir string) (int, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return 0, err
	}
	for i := range man.Versions {
		if man.Versions[i].Version != man.Current {
			continue
		}
		if i == 0 {
			return 0, fmt.Errorf("adapt: already at the oldest version (v%d)", man.Current)
		}
		return man.Versions[i-1].Version, nil
	}
	return 0, fmt.Errorf("adapt: current version %d not in manifest", man.Current)
}
