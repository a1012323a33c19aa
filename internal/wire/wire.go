// Package wire is the request edge: the one place the bytes of a /predict,
// /predict/batch or /feedback request become a checked plan.FlatPlan. The
// replica (internal/serve) and the routing front (internal/gateway) both
// negotiate, bound, decode and validate through it, so a request is accepted
// or rejected — status and body — identically whether it arrives direct or
// routed. It imports plan, pgexplain and the standard library only, and
// nothing in it knows which of the two is calling: a step that would need to
// stays in the caller.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dace/internal/pgexplain"
	"dace/internal/plan"
)

// Request-body ceilings: a malformed or hostile client must not make a
// process buffer an unbounded document. Overflow returns 413. Vars, not
// consts, so deployments (and tests) can tighten them before serving starts.
var (
	// MaxPredictBody caps one plan document (a deep plan is a few KB).
	MaxPredictBody int64 = 4 << 20
	// MaxBatchBody caps a /predict/batch array.
	MaxBatchBody int64 = 64 << 20
)

// TenantHeader is the canonical (net/textproto) form of the X-DACE-Tenant
// request header. Incoming header keys are canonicalized by net/http, so
// the hot path reads the header map directly under this key — Header.Get
// on the display form "X-DACE-Tenant" would re-canonicalize per call.
const TenantHeader = "X-Dace-Tenant"

// MaxTenantIDLen bounds tenant identifiers; they appear in headers, metric
// labels, and artifact paths.
const MaxTenantIDLen = 128

// errEmptyTenantID is pre-built: the gateway asks about every request's
// implicit identity, and most requests have none.
var errEmptyTenantID = errors.New("tenant: empty id")

// ValidateTenantID accepts exactly the identifiers that are safe to use as
// an artifact directory name, a metric label value, a header value and a
// query value spliced into an upstream request line: 1–128 bytes of
// [A-Za-z0-9._-], excluding the path specials "." and "..". Path separators
// are outside the charset, so a valid ID can never traverse out of the
// tenants root. The registry applies it to every ID it stores and the
// gateway to every implicit ID it forwards.
func ValidateTenantID(id string) error {
	if id == "" {
		return errEmptyTenantID
	}
	if len(id) > MaxTenantIDLen {
		return fmt.Errorf("tenant: id exceeds %d bytes", MaxTenantIDLen)
	}
	if id == "." || id == ".." {
		return fmt.Errorf("tenant: id %q is a reserved path name", id)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("tenant: id contains invalid byte %q at %d", c, i)
		}
	}
	return nil
}

// Params is what a request says about its body, outside the body.
type Params struct {
	// Format is the format query param: "" or "plan" (plan.WriteJSON
	// documents), or "pg" (PostgreSQL EXPLAIN (FORMAT JSON) output).
	Format string
	// Database is the database query param: the origin a pg plan is
	// labelled with, and the implicit tenant identity.
	Database string
	// Tenant is the X-DACE-Tenant header when present (TenantExplicit: the
	// named tenant must exist), else Database (an unmatched value falls back
	// to the base model, keeping pre-tenant clients working unchanged).
	Tenant         string
	TenantExplicit bool
	// Binary: the Content-Type selects the compact binary plan encoding (one
	// frame on /predict, a batch frame on /predict/batch) instead of JSON.
	Binary bool
}

var (
	errUnknownFormat = errors.New("unknown format (want plan or pg)")
	errBinaryPG      = errors.New("binary plan encoding cannot carry pg explain output")
)

// ParseParams reads and validates r's negotiation; a non-nil error is the
// client's fault (WriteError answers it with 400). Allocation-free for
// unescaped query values.
func ParseParams(r *http.Request) (Params, error) {
	query := r.URL.RawQuery
	p := Params{
		Format:   QueryParam(query, "format"),
		Database: QueryParam(query, "database"),
		Binary:   IsBinaryContentType(r.Header.Get("Content-Type")),
	}
	if p.Format != "" && p.Format != "plan" && p.Format != "pg" {
		return p, errUnknownFormat
	}
	if p.Binary && p.Format == "pg" {
		return p, errBinaryPG
	}
	p.Tenant = p.Database
	if vs := r.Header[TenantHeader]; len(vs) > 0 && vs[0] != "" {
		p.Tenant, p.TenantExplicit = vs[0], true
	}
	return p, nil
}

// Scratch holds the reusable state one request's read and decode need: the
// body reader+buffer, the streaming decoder with its flat arenas, and the
// flat plan a pg-explain tree is flattened into. The zero value is ready;
// callers embed it in whatever they pool per request.
type Scratch struct {
	lr   io.LimitedReader
	buf  bytes.Buffer
	dec  plan.Decoder
	flat plan.FlatPlan
}

// ReadBody drains the request body into the scratch buffer, enforcing the
// size cap without the per-request allocation http.MaxBytesReader costs. The
// result aliases the scratch and is valid until the next ReadBody.
func (s *Scratch) ReadBody(body io.Reader, limit int64) ([]byte, error) {
	s.lr.R = body
	s.lr.N = limit + 1
	s.buf.Reset()
	if _, err := s.buf.ReadFrom(&s.lr); err != nil {
		return nil, err
	}
	if int64(s.buf.Len()) > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	return s.buf.Bytes(), nil
}

// Decode parses and validates one plan document — binary frame, plan JSON,
// or pg EXPLAIN JSON, as p negotiated — into a flat plan that has passed
// Check. The result aliases the scratch (and body) and is valid until the
// scratch's next decode.
func (s *Scratch) Decode(body []byte, p Params) (*plan.FlatPlan, error) {
	var f *plan.FlatPlan
	var err error
	switch {
	case p.Format == "pg":
		// The one input that arrives as a tree: pg EXPLAIN output has no
		// streaming decoder. A null node is a parse error, so the tree is
		// safe to flatten.
		var t *plan.Plan
		if t, err = pgexplain.Parse(bytes.NewReader(body), p.Database); err == nil {
			f = s.flat.FromTree(t)
		}
	case p.Binary:
		f, err = s.dec.DecodeBinary(body)
	default:
		f, err = s.dec.Decode(body)
	}
	if err == nil {
		err = f.Check()
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeBatch decodes a /predict/batch body — a binary batch frame or a JSON
// array of documents in p's format — handing each checked plan to each in
// input order. The plan is valid only during the call (the decoder is reused
// entry to entry), so each copies what it keeps and memory tracks the bytes
// actually decoded, never the count a frame claims. The first bad entry, or
// the first error each returns, fails the batch with its index
// ("plan[17]: ...").
func (s *Scratch) DecodeBatch(body []byte, p Params, each func(f *plan.FlatPlan) error) error {
	if p.Binary {
		bb, err := plan.NewBinaryBatch(body)
		if err != nil {
			return err
		}
		for i := 0; bb.Len() > 0; i++ {
			f, err := bb.Next(&s.dec)
			if err == nil {
				err = f.Check()
			}
			if err == nil {
				err = each(f)
			}
			if err != nil {
				return fmt.Errorf("plan[%d]: %w", i, err)
			}
		}
		return nil
	}
	var raw []json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		return err
	}
	for i, msg := range raw {
		f, err := s.Decode(msg, p)
		if err == nil {
			err = each(f)
		}
		if err != nil {
			return fmt.Errorf("plan[%d]: %w", i, err)
		}
	}
	return nil
}

// WriteError answers a failed ParseParams, ReadBody or Decode: an oversized
// body is 413, everything else is the client's fault.
func WriteError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// AllowOnly enforces a single-method endpoint: a mismatched request gets 405
// with an Allow header naming the one accepted method (RFC 9110 §15.5.6
// requires Allow on 405). Returns true when the request may proceed.
func AllowOnly(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	http.Error(w, method+" required", http.StatusMethodNotAllowed)
	return false
}

// QueryParam returns the first value of name in a raw query string without
// materializing the url.Values map. Escaped values take the slow, allocating
// path; plain ones (the common case: format=pg&database=prod) do not.
func QueryParam(query, name string) string {
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

// IsBinaryContentType reports whether a Content-Type header selects the
// compact binary plan encoding (exact match or with parameters).
func IsBinaryContentType(ct string) bool {
	const want = plan.BinaryContentType
	if ct == want {
		return true
	}
	return len(ct) > len(want) && ct[:len(want)] == want &&
		(ct[len(want)] == ';' || ct[len(want)] == ' ')
}

// contentLengths memoizes the []string header value per response size, so
// setting Content-Length costs one atomic load instead of a string
// allocation — and no lock: every response passes through here, and a
// shared lock's reader count is a cache line all handlers write. An explicit
// Content-Length keeps net/http from switching to chunked transfer encoding
// on responses larger than its 2 KiB sniff buffer — less framing on the wire
// and less parsing for clients. Sizes repeat heavily (cached responses are
// byte-identical). Slots fill lazily, and two handlers racing to fill one
// store equal values; a response of maxMemoContentLength bytes or more (a
// ~150-node plan and up, or a batch) formats its length afresh — two small
// allocations against a render of tens of kilobytes.
const maxMemoContentLength = 16 << 10

var contentLengths [maxMemoContentLength]atomic.Pointer[[1]string]

// ContentLengthValue returns the Content-Length header value for an n-byte
// response, to be assigned to the header map directly.
func ContentLengthValue(n int) []string {
	if n >= maxMemoContentLength {
		return []string{strconv.Itoa(n)}
	}
	v := contentLengths[n].Load()
	if v == nil {
		v = &[1]string{strconv.Itoa(n)}
		contentLengths[n].Store(v)
	}
	return v[:]
}

// statusRecorder captures the response status for Instrument; pooled so
// steady-state instrumented serving allocates nothing extra.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

var recPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// Instrument wraps h so that observe sees every request's status and
// latency: the per-endpoint telemetry wrapper.
func Instrument(h http.HandlerFunc, observe func(code int, d time.Duration)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sr := recPool.Get().(*statusRecorder)
		sr.ResponseWriter, sr.code = w, http.StatusOK
		start := time.Now()
		h(sr, r)
		observe(sr.code, time.Since(start))
		sr.ResponseWriter = nil
		recPool.Put(sr)
	}
}
