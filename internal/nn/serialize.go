package nn

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
)

// paramJSON is the wire form of a single parameter.
type paramJSON struct {
	Name string    `json:"name"`
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

// paramsFile is the framed parameter dump: a magic/version header, the
// parameter count, the payload, and a trailing CRC32 over the payload
// bytes. The frame makes LoadParams fail loudly on a file that is not a
// parameter dump, was written by an incompatible version, lost its tail to
// a truncated write, or was flipped on disk — instead of silently loading
// a model that predicts garbage.
type paramsFile struct {
	Magic   string          `json:"magic"`
	Version int             `json:"version"`
	Count   int             `json:"count"`
	Params  json.RawMessage `json:"params"`
	CRC32   uint32          `json:"crc32"`
}

const (
	paramsMagic   = "dace-params"
	paramsVersion = 1
)

// SaveParams writes params to w as a framed JSON document: magic, format
// version, parameter count, the name-keyed parameter payload, and a CRC32
// over the payload bytes.
func SaveParams(w io.Writer, params []*Param) error {
	out := make([]paramJSON, 0, len(params))
	for _, p := range params {
		out = append(out, paramJSON{Name: p.Name, Rows: p.Value.Rows, Cols: p.Value.Cols, Data: p.Value.Data})
	}
	body, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("nn: encode params: %w", err)
	}
	return json.NewEncoder(w).Encode(paramsFile{
		Magic:   paramsMagic,
		Version: paramsVersion,
		Count:   len(params),
		Params:  body,
		CRC32:   crc32.ChecksumIEEE(body),
	})
}

// LoadParams reads a parameter dump from r and copies values into matching
// (by name and shape) entries of params. The frame is verified first —
// magic, version, parameter count, and payload CRC — so a truncated,
// corrupted, or wrong-architecture file is rejected with a descriptive
// error rather than partially applied. Headerless dumps written before the
// frame existed (a bare JSON array) are still accepted.
func LoadParams(r io.Reader, params []*Param) error {
	var raw json.RawMessage
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return fmt.Errorf("nn: decode params: %w", err)
	}
	body := raw
	if trimmed := bytes.TrimLeft(raw, " \t\r\n"); len(trimmed) == 0 || trimmed[0] != '[' {
		var pf paramsFile
		if err := json.Unmarshal(raw, &pf); err != nil {
			return fmt.Errorf("nn: decode params frame: %w", err)
		}
		if pf.Magic != paramsMagic {
			return fmt.Errorf("nn: not a parameter dump (magic %q, want %q)", pf.Magic, paramsMagic)
		}
		if pf.Version != paramsVersion {
			return fmt.Errorf("nn: parameter dump version %d, this build reads %d", pf.Version, paramsVersion)
		}
		if crc32.ChecksumIEEE(pf.Params) != pf.CRC32 {
			return fmt.Errorf("nn: parameter dump checksum mismatch (truncated or corrupted file)")
		}
		if pf.Count != len(params) {
			return fmt.Errorf("nn: parameter dump holds %d params, model wants %d (architecture mismatch)", pf.Count, len(params))
		}
		body = pf.Params
	}
	var in []paramJSON
	if err := json.Unmarshal(body, &in); err != nil {
		return fmt.Errorf("nn: decode params: %w", err)
	}
	byName := make(map[string]paramJSON, len(in))
	for _, p := range in {
		byName[p.Name] = p
	}
	for _, p := range params {
		src, ok := byName[p.Name]
		if !ok {
			return fmt.Errorf("nn: parameter %q missing from dump", p.Name)
		}
		if src.Rows != p.Value.Rows || src.Cols != p.Value.Cols {
			return fmt.Errorf("nn: parameter %q shape mismatch: dump %d×%d vs model %d×%d",
				p.Name, src.Rows, src.Cols, p.Value.Rows, p.Value.Cols)
		}
		if len(src.Data) != len(p.Value.Data) {
			return fmt.Errorf("nn: parameter %q has %d values, want %d", p.Name, len(src.Data), len(p.Value.Data))
		}
		copy(p.Value.Data, src.Data)
	}
	return nil
}

// CopyParams copies values from src into dst, matched positionally. Shapes
// must agree; it is used to snapshot and restore models during experiments.
func CopyParams(dst, src []*Param) error {
	if len(dst) != len(src) {
		return fmt.Errorf("nn: CopyParams count mismatch %d vs %d", len(dst), len(src))
	}
	for i := range dst {
		if !dst[i].Value.SameShape(src[i].Value) {
			return fmt.Errorf("nn: CopyParams shape mismatch at %d (%q)", i, dst[i].Name)
		}
		copy(dst[i].Value.Data, src[i].Value.Data)
	}
	return nil
}
