// Zero-copy wire path: the /predict and /predict/batch hot loops, rebuilt
// around the streaming plan decoder. A request body is read once into a
// pooled buffer and decoded straight into flat arenas (plan.Decoder) — no
// *plan.Node tree, no encoding/json — with the cache fingerprint computed
// during the parse. Responses are rendered by a handwritten JSON encoder
// that reproduces encoding/json's output byte for byte, so enabling the
// fast path can never change what clients see.
//
// Wire negotiation: a request whose Content-Type is plan.BinaryContentType
// carries the compact binary plan encoding (one frame on /predict, a batch
// frame on /predict/batch) instead of JSON. Responses are JSON either way.
package serve

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"dace/internal/plan"
	"dace/internal/servecache"
)

// wireScratch holds every reusable buffer one request needs: the body
// reader+buffer, the streaming decoder with its flat arenas, the flat plan
// a pg-explain or feedback tree is converted into, the owned copies of a
// /predict/batch request's plans, and the response-assembly buffers for
// renders that bypass the body cache.
type wireScratch struct {
	lr    io.LimitedReader
	buf   bytes.Buffer
	dec   plan.Decoder
	flat  plan.FlatPlan
	batch plan.FlatBatch
	resp  []byte
	preds []float64
}

var wirePool = sync.Pool{New: func() any { return new(wireScratch) }}

// readBody drains the request body into the scratch buffer, enforcing the
// size cap without the per-request allocation http.MaxBytesReader costs.
func (ws *wireScratch) readBody(rc io.ReadCloser, limit int64) ([]byte, error) {
	ws.lr.R = rc
	ws.lr.N = limit + 1
	ws.buf.Reset()
	if _, err := ws.buf.ReadFrom(&ws.lr); err != nil {
		return nil, err
	}
	if int64(ws.buf.Len()) > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	return ws.buf.Bytes(), nil
}

// queryParam returns the first value of name in a raw query string without
// materializing the url.Values map. Escaped values take the slow, allocating
// path; plain ones (the common case: format=pg&database=prod) do not.
func queryParam(query, name string) string {
	for len(query) > 0 {
		var part string
		if i := strings.IndexByte(query, '&'); i >= 0 {
			part, query = query[:i], query[i+1:]
		} else {
			part, query = query, ""
		}
		if len(part) <= len(name) || part[len(name)] != '=' || part[:len(name)] != name {
			continue
		}
		v := part[len(name)+1:]
		if strings.IndexByte(v, '%') >= 0 || strings.IndexByte(v, '+') >= 0 {
			if u, err := url.QueryUnescape(v); err == nil {
				return u
			}
		}
		return v
	}
	return ""
}

// isBinaryContentType reports whether a Content-Type header selects the
// compact binary plan encoding (exact match or with parameters).
func isBinaryContentType(ct string) bool {
	const want = plan.BinaryContentType
	if ct == want {
		return true
	}
	return len(ct) > len(want) && ct[:len(want)] == want &&
		(ct[len(want)] == ';' || ct[len(want)] == ' ')
}

// binaryBodyTag domain-separates binary bodies from JSON bodies in the body
// cache key (the JSON domain uses the request's format string, which can
// never contain a NUL byte from a query parameter).
var binaryBodyTag = []byte("bin\x00")

var jsonContentType = []string{"application/json"}

// contentLengths memoizes the []string header value per response size, so
// setting Content-Length costs a read-locked map probe instead of a string
// allocation. An explicit Content-Length keeps net/http from switching to
// chunked transfer encoding on responses larger than its 2 KiB sniff
// buffer — less framing on the wire and less parsing for clients. Sizes
// repeat heavily (cached responses are byte-identical), and only lengths
// below maxMemoContentLength are kept, so the map is bounded by that many
// tiny entries; a larger response (a ~150-node plan and up, or a batch)
// formats its length afresh — two small allocations against a render of
// tens of kilobytes.
const maxMemoContentLength = 16 << 10

var (
	contentLengthMu    sync.RWMutex
	contentLengthCache = map[int][]string{}
)

func contentLengthValue(n int) []string {
	if n >= maxMemoContentLength {
		return []string{strconv.Itoa(n)}
	}
	contentLengthMu.RLock()
	v, ok := contentLengthCache[n]
	contentLengthMu.RUnlock()
	if ok {
		return v
	}
	v = []string{strconv.Itoa(n)}
	contentLengthMu.Lock()
	contentLengthCache[n] = v
	contentLengthMu.Unlock()
	return v
}

// writeResponseBytes writes a prediction response. Headers are assigned via
// the map directly — not Header().Set, which allocates a fresh []string per
// call — keeping the body-cache hit path allocation-free.
func writeResponseBytes(w http.ResponseWriter, resp []byte) {
	h := w.Header()
	if _, ok := h["Content-Type"]; !ok {
		h["Content-Type"] = jsonContentType
	}
	if _, ok := h["Content-Length"]; !ok {
		h["Content-Length"] = contentLengthValue(len(resp))
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
// cache, within the request's tenant cache domain. The probe goes through
// Lookup first so a steady-state hit builds no compute closure; only an
// absent key pays for GetOrCompute's coalescing.
func (s *Server) predsForFlat(f *plan.FlatPlan, tc tenantCtx) ([]float64, error) {
	if s.preds != nil && !f.Fingerprint.IsZero() {
		key := tc.key(servecache.Key(f.Fingerprint))
		if v, ok := s.preds.Lookup(key); ok {
			return v, nil
		}
		return s.preds.GetOrCompute(key, func() ([]float64, error) {
			return s.inferFlat(f, tc)
		})
	}
	return s.inferFlat(f, tc)
}

// inferFlat runs one uncached forward pass for a flat plan, behind the
// admission stage when enabled. f stays the caller's: both branches are done
// with it when they return.
func (s *Server) inferFlat(f *plan.FlatPlan, tc tenantCtx) ([]float64, error) {
	if s.bat != nil {
		return s.bat.submit(f, tc.model)
	}
	return tc.modelOr(s).AppendPredictSubPlansFlat(nil, f), nil
}

// decode parses and validates one request document — binary frame, plan
// JSON, or pg EXPLAIN JSON — into a flat plan that aliases ws and is valid
// until ws's next decode. pg output has no streaming decoder: its tree is
// validated by decodePlan and flattened here, the edge of the flat path.
func (ws *wireScratch) decode(body []byte, format, database string, binary bool) (*plan.FlatPlan, error) {
	if format == "pg" {
		p, err := decodePlan(bytes.NewReader(body), format, database)
		if err != nil {
			return nil, err
		}
		return ws.flat.FromTree(p), nil
	}
	var f *plan.FlatPlan
	var err error
	if binary {
		f, err = ws.dec.DecodeBinary(body)
	} else {
		f, err = ws.dec.Decode(body)
	}
	if err == nil {
		err = f.Check()
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// renderPredict produces the /predict response bytes for one body-cache
// miss: decode → predict → encode. The output may be inserted into the body
// cache, so it is appended to dst — pass nil for a fresh cacheable slice,
// or a pooled buffer when the response will not be retained.
func (s *Server) renderPredict(ws *wireScratch, dst, body []byte, format, database string, binary bool, tc tenantCtx) ([]byte, error) {
	f, err := ws.decode(body, format, database, binary)
	if err != nil {
		return nil, err
	}
	var preds []float64
	if s.preds == nil && s.bat == nil {
		ws.preds = tc.modelOr(s).AppendPredictSubPlansFlat(ws.preds[:0], f)
		preds = ws.preds
	} else if preds, err = s.predsForFlat(f, tc); err != nil {
		return nil, err
	}
	out, err := appendPrediction(dst, f, preds)
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
