// The response half of the wire path. Requests reach this package already
// read, decoded and validated by the request edge (internal/wire): one pooled
// buffer, flat arenas, no pointer tree, the cache fingerprint computed
// during the parse. Responses are rendered by a handwritten JSON encoder
// that reproduces encoding/json's output byte for byte, so enabling the
// fast path can never change what clients see; they are JSON whichever
// encoding the request used.
package serve

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"dace/internal/plan"
	"dace/internal/servecache"
	"dace/internal/tenant"
	"dace/internal/wire"
)

// wireScratch holds every reusable buffer one request needs: the request
// edge's read and decode state, the owned copies of a /predict/batch
// request's plans, and the response-assembly buffers for renders that bypass
// the body cache.
type wireScratch struct {
	wire.Scratch
	batch plan.FlatBatch
	resp  []byte
	preds []float64
}

var wirePool = sync.Pool{New: func() any { return new(wireScratch) }}

// binaryBodyTag domain-separates binary bodies from JSON bodies in the body
// cache key (the JSON domain uses the request's format string, which can
// never contain a NUL byte from a query parameter).
var binaryBodyTag = []byte("bin\x00")

var jsonContentType = []string{"application/json"}

// writeResponseBytes writes a prediction response. Headers are assigned via
// the map directly — not Header().Set, which allocates a fresh []string per
// call — keeping the body-cache hit path allocation-free.
func writeResponseBytes(w http.ResponseWriter, resp []byte) {
	h := w.Header()
	if _, ok := h["Content-Type"]; !ok {
		h["Content-Type"] = jsonContentType
	}
	if _, ok := h["Content-Length"]; !ok {
		h["Content-Length"] = wire.ContentLengthValue(len(resp))
	}
	w.Write(resp)
}

// errNonFinite reports a prediction encoding/json would refuse to emit.
var errNonFinite = errors.New("serve: model produced a non-finite prediction")

// checkPreds rejects non-finite predictions up front so the append chain
// below never has to thread an error through.
func checkPreds(preds []float64) error {
	for _, v := range preds {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errNonFinite
		}
	}
	return nil
}

// appendJSONFloat appends v exactly as encoding/json renders a float64:
// shortest-form 'f', switching to 'e' outside [1e-6, 1e21) with the
// exponent's leading zero trimmed. v must be finite (checkPreds/Check ran).
func appendJSONFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as an encoding/json string literal, including
// its HTML-safe escaping (<, >, & → \u00XX) and U+2028/U+2029 handling.
// Operator names are plain ASCII, so the loop almost never leaves its fast
// path, but exactness here is what makes responses byte-identical.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendSubPlan appends one SubPlan object, field for field what
// encoding/json emits for the struct.
func appendSubPlan(b []byte, i int, op string, height int, estRows, estCost, pred float64) []byte {
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, `,"operator":`...)
	b = appendJSONString(b, op)
	b = append(b, `,"height":`...)
	b = strconv.AppendInt(b, int64(height), 10)
	b = append(b, `,"est_rows":`...)
	b = appendJSONFloat(b, estRows)
	b = append(b, `,"est_cost":`...)
	b = appendJSONFloat(b, estCost)
	b = append(b, `,"predicted_ms":`...)
	b = appendJSONFloat(b, pred)
	return append(b, '}')
}

// appendPrediction renders a Prediction document for a flat plan — the same
// bytes json.Marshal produces for the Prediction struct, without the
// []SubPlan or the encoder. No trailing newline; callers frame it.
func appendPrediction(b []byte, f *plan.FlatPlan, preds []float64) ([]byte, error) {
	if err := checkPreds(preds); err != nil {
		return b, err
	}
	b = append(b, `{"root_ms":`...)
	root := 0.0
	if f.Len() > 0 {
		root = preds[0]
	}
	b = appendJSONFloat(b, root)
	b = append(b, `,"sub_plans":[`...)
	for i := 0; i < f.Len(); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendSubPlan(b, i, f.Types[i].String(), int(f.Heights[i]), f.EstRows[i], f.EstCost[i], preds[i])
	}
	return append(b, ']', '}'), nil
}

// predsForFlat resolves a flat plan's predictions through the fingerprint
// cache, within the request's tenant cache domain, and through the admission
// stage on a miss. Predictions nothing will keep — no plan cache, or a plan
// without a fingerprint — land in the pooled ws.preds; a cached compute gets
// a fresh slice. The probe goes through Lookup first so a steady-state hit
// builds no compute closure; only an absent key pays for GetOrCompute's
// coalescing.
func (s *Server) predsForFlat(ws *wireScratch, f *plan.FlatPlan, st *tenant.State) ([]float64, error) {
	if s.preds == nil || f.Fingerprint.IsZero() {
		preds, err := s.bat.submit(ws.preds[:0], f, st.View)
		if err != nil {
			return nil, err
		}
		ws.preds = preds
		return preds, nil
	}
	key := st.Key(servecache.Key(f.Fingerprint))
	if v, ok := s.preds.Lookup(key); ok {
		return v, nil
	}
	return s.preds.GetOrCompute(key, func() ([]float64, error) {
		return s.bat.submit(nil, f, st.View)
	})
}

// renderPredict produces the /predict response bytes for one body-cache
// miss: decode → predict → encode. The output may be inserted into the body
// cache, so it is appended to dst — pass nil for a fresh cacheable slice,
// or a pooled buffer when the response will not be retained.
func (s *Server) renderPredict(ws *wireScratch, dst, body []byte, p wire.Params, st *tenant.State) ([]byte, error) {
	f, err := ws.Decode(body, p)
	if err != nil {
		return nil, err
	}
	preds, err := s.predsForFlat(ws, f, st)
	if err != nil {
		return nil, err
	}
	out, err := appendPrediction(dst, f, preds)
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
