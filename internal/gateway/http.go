package gateway

import (
	"net/http"
	"sync"

	"dace/internal/wire"
)

// gwScratch holds every reusable buffer one gateway request needs: the
// request edge's read and decode state, the binary re-encode buffer, and the
// upstream round-trip buffers. Pooled so the steady-state routing path
// allocates nothing.
type gwScratch struct {
	wire.Scratch
	out  []byte // binary re-encode of the routed plan (upstream body)
	wire wireBuf

	// Batch state: per-entry binary bodies (concatenated + offsets), hash
	// and routing assignment per entry, and the merged response buffer.
	entryBuf []byte
	entryOff []int
	entryFP  []uint64
	results  [][]byte
	merged   []byte
}

var gwPool = sync.Pool{New: func() any { return new(gwScratch) }}

var (
	jsonContentType = []string{"application/json"}
	retryAfter1     = []string{"1"}
)

// contentTypeValue memoizes upstream Content-Type header values, so passing
// one through costs a read-locked map probe instead of a string allocation;
// the domain is tiny (application/json and text/plain variants).
var (
	contentTypeMu    sync.RWMutex
	contentTypeCache = map[string][]string{}
)

func contentTypeValue(ct []byte) []string {
	if len(ct) == 0 {
		return jsonContentType
	}
	contentTypeMu.RLock()
	v, ok := contentTypeCache[string(ct)]
	contentTypeMu.RUnlock()
	if ok {
		return v
	}
	s := string(ct)
	v = []string{s}
	contentTypeMu.Lock()
	contentTypeCache[s] = v
	contentTypeMu.Unlock()
	return v
}

// writeProxied writes an upstream response through to the client: status
// and body verbatim, Content-Type as the replica sent it, Retry-After on
// 503 so backpressure keeps its client contract through the gateway hop.
func writeProxied(w http.ResponseWriter, status int, ctype, body []byte) {
	h := w.Header()
	h["Content-Type"] = contentTypeValue(ctype)
	h["Content-Length"] = wire.ContentLengthValue(len(body))
	if status == http.StatusServiceUnavailable {
		h["Retry-After"] = retryAfter1
	}
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	w.Write(body)
}
