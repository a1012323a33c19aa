package gateway

import (
	"fmt"
	"net/http"
	"sync"

	"dace/internal/plan"
	"dace/internal/wire"
)

// The batch path splits one client batch into per-replica shard batches,
// forwards them concurrently, and merges the shard responses back into
// input order. Every entry still routes by its own fingerprint, so a
// batch's entries land on the same replicas single /predict calls for the
// same plans would — shard-local caches see one coherent key space either
// way. The merged response is byte-identical to what one replica serving
// the whole batch would produce: `[` + docs + `]\n` with the same compact
// rendering, because elements are spliced verbatim from replica responses.

// shardScratch is the per-shard forwarding state: the assembled binary
// batch frame and the round-trip buffers. Shards of one request run
// concurrently, so each borrows its own scratch; scratches are held until
// the merge completes (results alias their resp buffers), then returned.
type shardScratch struct {
	frame []byte
	wire  wireBuf
}

var shardPool = sync.Pool{New: func() any { return new(shardScratch) }}

// shardCall is one shard round trip's outcome.
type shardCall struct {
	rep     *Replica
	entries []int // client batch indices carried by this shard
	ss      *shardScratch
	status  int
	err     error
}

// handleBatch routes one batch request across the fleet.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowOnly(w, r, http.MethodPost) {
		return
	}
	p, err := wire.ParseParams(r)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	tenant := tenantOf(p)
	ws := gwPool.Get().(*gwScratch)
	defer gwPool.Put(ws)
	body, err := ws.ReadBody(r.Body, wire.MaxBatchBody)
	if err != nil {
		wire.WriteError(w, err)
		return
	}

	// Re-encode the client batch into per-entry binary bodies (concatenated
	// in ws.entryBuf with ws.entryOff offsets) and fingerprints (ws.entryFP).
	// Validation happens here, before any bytes go upstream, so one bad entry
	// fails the request with its index and no replica does work.
	ws.entryBuf = ws.entryBuf[:0]
	ws.entryOff = append(ws.entryOff[:0], 0)
	ws.entryFP = ws.entryFP[:0]
	err = ws.DecodeBatch(body, p, func(f *plan.FlatPlan) error {
		var err error
		if ws.entryBuf, err = f.AppendBinaryBody(ws.entryBuf); err != nil {
			return err
		}
		ws.entryOff = append(ws.entryOff, len(ws.entryBuf))
		ws.entryFP = append(ws.entryFP, f.Fingerprint.Hi)
		return nil
	})
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	n := len(ws.entryOff) - 1

	if n == 0 {
		// Nothing to route; answer the empty batch locally.
		writeProxied(w, http.StatusOK, nil, []byte("[]\n"))
		return
	}

	// Materialize per-entry body slices now that entryBuf is final.
	if cap(ws.results) < n {
		ws.results = make([][]byte, n)
	}
	results := ws.results[:n]
	entries := make([][]byte, n)
	for i := 0; i < n; i++ {
		entries[i] = ws.entryBuf[ws.entryOff[i]:ws.entryOff[i+1]]
		results[i] = nil
	}

	// Route in rounds: a transport failure ejects the replica and throws
	// its entries back into the pending set, which the next round routes
	// over the remapped ring. Bounded by the fleet size — each failed
	// round removes at least one replica.
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	var held []*shardScratch
	defer func() {
		for _, ss := range held {
			shardPool.Put(ss)
		}
	}()

	for round := 0; round <= len(g.pool.replicas) && len(pending) > 0; round++ {
		calls, err := g.forwardShards(ws, entries, pending, tenant)
		if err != nil {
			writeRouteError(w, err)
			return
		}
		pending = pending[:0]
		var passThrough *shardCall
		for i := range calls {
			call := &calls[i]
			held = append(held, call.ss)
			switch {
			case call.err != nil:
				call.rep.errored.Add(1)
				g.pool.eject(call.rep)
				pending = append(pending, call.entries...)
			case call.status != http.StatusOK:
				if passThrough == nil {
					passThrough = call
				}
			default:
				if err := splitJSONArray(call.ss.wire.resp, call.entries, results); err != nil {
					http.Error(w, fmt.Sprintf("gateway: replica %s returned a malformed batch: %v", call.rep.Name, err), http.StatusBadGateway)
					return
				}
			}
		}
		if passThrough != nil {
			// A replica rejected its shard (it validates independently of
			// the gateway); its verdict stands for the whole batch, matching
			// the all-or-nothing contract of the single-server endpoint.
			writeProxied(w, passThrough.status, passThrough.ss.wire.ct, passThrough.ss.wire.resp)
			return
		}
	}
	if len(pending) > 0 {
		writeRouteError(w, errNoReplicas)
		return
	}

	// Merge in input order.
	merged := append(ws.merged[:0], '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			merged = append(merged, ',')
		}
		merged = append(merged, results[i]...)
	}
	ws.merged = append(merged, ']', '\n')
	writeProxied(w, http.StatusOK, nil, ws.merged)
}

// forwardShards groups the pending entries by owning replica and performs
// every shard round trip concurrently. It fails fast (before sending
// anything) if any entry has no owner or any owner is saturated — partial
// batches are never forwarded, so a 503 here means no replica did work.
func (g *Gateway) forwardShards(ws *gwScratch, entries [][]byte, pending []int, tenant tenantID) ([]shardCall, error) {
	groups := make([][]int, len(g.pool.replicas))
	for _, e := range pending {
		rep := g.pool.route(ws.entryFP[e])
		if rep == nil {
			return nil, errNoReplicas
		}
		groups[rep.idx] = append(groups[rep.idx], e)
	}
	var calls []shardCall
	for idx, group := range groups {
		if len(group) == 0 {
			continue
		}
		calls = append(calls, shardCall{rep: g.pool.replicas[idx], entries: group, ss: shardPool.Get().(*shardScratch)})
	}
	acquired := 0
	for i := range calls {
		if !calls[i].rep.acquire() {
			for j := 0; j < acquired; j++ {
				calls[j].rep.release()
			}
			for i := range calls {
				shardPool.Put(calls[i].ss)
			}
			return nil, errBackpressure
		}
		acquired++
	}
	var wg sync.WaitGroup
	for i := range calls {
		call := &calls[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer call.rep.release()
			ss := call.ss
			ss.frame = plan.AppendBinaryFrameHeader(ss.frame[:0])
			ss.frame = plan.AppendBinaryBatchCount(ss.frame, len(call.entries))
			for _, e := range call.entries {
				ss.frame = append(ss.frame, entries[e]...)
			}
			call.rep.requests.Add(1)
			call.status, _, call.err = call.rep.up.roundTrip(&ss.wire, http.MethodPost, "/predict/batch", plan.BinaryContentType, tenant, ss.frame)
		}()
	}
	wg.Wait()
	return calls, nil
}

// splitJSONArray slices the top-level elements out of one replica's batch
// response (`[e0,e1,...]\n`) and stores element k into results[dst[k]].
// Elements are compact JSON objects; the scanner tracks nesting depth and
// string state, so any valid JSON value splits correctly.
func splitJSONArray(resp []byte, dst []int, results [][]byte) error {
	i, n := 0, len(resp)
	for i < n && (resp[i] == ' ' || resp[i] == '\n' || resp[i] == '\t' || resp[i] == '\r') {
		i++
	}
	if i >= n || resp[i] != '[' {
		return fmt.Errorf("response is not a JSON array")
	}
	i++
	for k := 0; k < len(dst); k++ {
		for i < n && (resp[i] == ' ' || resp[i] == '\n' || resp[i] == '\t' || resp[i] == '\r') {
			i++
		}
		start := i
		depth := 0
		inStr := false
		esc := false
	scan:
		for ; i < n; i++ {
			c := resp[i]
			switch {
			case esc:
				esc = false
			case inStr:
				if c == '\\' {
					esc = true
				} else if c == '"' {
					inStr = false
				}
			case c == '"':
				inStr = true
			case c == '{' || c == '[':
				depth++
			case c == '}' || c == ']':
				if depth == 0 {
					break scan // closing ']' of the outer array
				}
				depth--
			case c == ',' && depth == 0:
				break scan
			}
		}
		if i == start || depth != 0 || inStr {
			return fmt.Errorf("array has fewer elements than the %d requested", len(dst))
		}
		results[dst[k]] = resp[start:i]
		if i < n && resp[i] == ',' {
			i++
		}
	}
	for i < n && (resp[i] == ' ' || resp[i] == '\n' || resp[i] == '\t' || resp[i] == '\r') {
		i++
	}
	if i >= n || resp[i] != ']' {
		return fmt.Errorf("array has more elements than the %d requested", len(dst))
	}
	return nil
}
