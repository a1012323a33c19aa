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
	textContentType = []string{"text/plain; charset=utf-8"}
	retryAfter1     = []string{"1"}
)

// contentTypeValue is the header value for an upstream Content-Type. The two
// values daced sends — JSON for predictions and documents, net/http's
// text/plain for errors — are preallocated, so passing one through costs
// nothing; any other value is allocated per response.
func contentTypeValue(ct []byte) []string {
	switch {
	case len(ct) == 0 || string(ct) == jsonContentType[0]:
		return jsonContentType
	case string(ct) == textContentType[0]:
		return textContentType
	}
	return []string{string(ct)}
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
