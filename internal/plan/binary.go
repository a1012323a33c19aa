package plan

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary plan encoding is the compact wire format high-volume clients
// use to skip JSON entirely. One frame is:
//
//	0xDA 0xCE            magic
//	version (1 byte)     currently 1; anything else is rejected
//	body                 one plan, or uvarint(count) followed by count plans
//
// and one plan body is, in DFS pre-order (the storage and featurization
// order, so decoding is a single forward pass):
//
//	uvarint(len(database)) database bytes
//	uvarint(nodeCount)
//	per node: type (1 byte) · uvarint(childCount) ·
//	          est_rows, est_cost, actual_rows, actual_ms
//	          (each float64 bits, little-endian)
//
// Child counts are the prefix code that makes the flat sequence a unique
// tree, exactly as in the fingerprint. Meta and SQL are model-invisible and
// deliberately not representable: plans that differ only there are the same
// costing problem. The format is versioned so it can evolve without
// breaking deployed clients — decoders reject versions they do not know.
const (
	binMagic0 = 0xDA
	binMagic1 = 0xCE

	// BinaryVersion is the wire version this build reads and writes.
	BinaryVersion = 1

	// BinaryContentType negotiates the binary encoding on the serving
	// endpoints: a request whose Content-Type names it is decoded as a
	// binary frame instead of JSON.
	BinaryContentType = "application/x-dace-plan"

	// nodeWireBytes is the minimum encoded size of one node (type byte,
	// one-byte child count, four float64s) — the bound that lets a decoder
	// sanity-check a claimed node count against the bytes actually present
	// before sizing any arena.
	nodeWireBytes = 1 + 1 + 4*8
)

// AppendBinary appends the framed binary encoding of a single plan to dst.
func AppendBinary(dst []byte, p *Plan) ([]byte, error) {
	dst = append(dst, binMagic0, binMagic1, BinaryVersion)
	return appendBinaryPlan(dst, p)
}

func appendBinaryPlan(dst []byte, p *Plan) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(p.Database)))
	dst = append(dst, p.Database...)
	n := countBinaryNodes(p.Root)
	dst = binary.AppendUvarint(dst, uint64(n))
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n == nil {
			return fmt.Errorf("plan: cannot encode null node")
		}
		if n.Type < 0 || n.Type > 0xFF {
			return fmt.Errorf("plan: node type %d does not fit the binary encoding", int(n.Type))
		}
		dst = append(dst, byte(n.Type))
		dst = binary.AppendUvarint(dst, uint64(len(n.Children)))
		for _, v := range [...]float64{n.EstRows, n.EstCost, n.ActualRows, n.ActualMS} {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if p.Root != nil {
		if err := walk(p.Root); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func countBinaryNodes(n *Node) int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += countBinaryNodes(c)
	}
	return total
}

// checkBinaryHeader validates the magic and version and returns the body.
func checkBinaryHeader(data []byte) ([]byte, error) {
	if len(data) < 3 {
		return nil, fmt.Errorf("plan: binary frame too short (%d bytes)", len(data))
	}
	if data[0] != binMagic0 || data[1] != binMagic1 {
		return nil, fmt.Errorf("plan: not a binary plan frame (bad magic)")
	}
	if data[2] != BinaryVersion {
		return nil, fmt.Errorf("plan: unsupported binary plan version %d (want %d)", data[2], BinaryVersion)
	}
	return data[3:], nil
}

// DecodeBinary parses one framed binary plan. Like Decode, the result
// aliases the decoder's arenas and is valid until the next decode call.
// Trailing bytes after the plan are an error — binary clients control the
// frame exactly.
func (d *Decoder) DecodeBinary(data []byte) (*FlatPlan, error) {
	body, err := checkBinaryHeader(data)
	if err != nil {
		return nil, err
	}
	rest, err := d.decodeBinaryPlan(body)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("plan: %d trailing bytes after binary plan", len(rest))
	}
	return &d.f, nil
}

// BinaryBatch iterates the plans of one framed binary batch.
type BinaryBatch struct {
	rest []byte
	n    int
}

// NewBinaryBatch validates the frame header and batch count of data. The
// claimed count is checked against the bytes present, so a hostile count
// cannot force large allocations.
func NewBinaryBatch(data []byte) (*BinaryBatch, error) {
	body, err := checkBinaryHeader(data)
	if err != nil {
		return nil, err
	}
	count, k := binary.Uvarint(body)
	if k <= 0 {
		return nil, fmt.Errorf("plan: invalid batch count")
	}
	body = body[k:]
	// The empty plan (no database, no nodes) is two varint bytes.
	if count > uint64(len(body)/2) {
		return nil, fmt.Errorf("plan: batch claims %d plans but only %d bytes follow", count, len(body))
	}
	return &BinaryBatch{rest: body, n: int(count)}, nil
}

// Len returns the number of plans not yet decoded.
func (b *BinaryBatch) Len() int { return b.n }

// Next decodes the next plan of the batch into d. The result aliases d's
// arenas: it is valid until d's next decode, so callers that keep plans
// across iterations must copy them out (FlatBatch.Append) first. After the
// last plan, Next verifies the frame was consumed exactly.
func (b *BinaryBatch) Next(d *Decoder) (*FlatPlan, error) {
	if b.n <= 0 {
		return nil, fmt.Errorf("plan: batch exhausted")
	}
	rest, err := d.decodeBinaryPlan(b.rest)
	if err != nil {
		return nil, err
	}
	b.rest = rest
	b.n--
	if b.n == 0 && len(rest) != 0 {
		return nil, fmt.Errorf("plan: %d trailing bytes after binary batch", len(rest))
	}
	return &d.f, nil
}

// decodeBinaryPlan parses one plan body into d's arenas and returns the
// unconsumed remainder. Shape (heights, subtree spans) is reconstructed
// from the child counts and the fingerprint computed, so the result is
// interchangeable with a JSON decode of the same plan.
func (d *Decoder) decodeBinaryPlan(data []byte) ([]byte, error) {
	d.f.reset()
	dbLen, k := binary.Uvarint(data)
	if k <= 0 || dbLen > uint64(len(data)-k) {
		return nil, fmt.Errorf("plan: invalid database length")
	}
	data = data[k:]
	d.f.database = append(d.f.database[:0], data[:dbLen]...)
	data = data[dbLen:]

	count, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("plan: invalid node count")
	}
	data = data[k:]
	if count > uint64(len(data)/nodeWireBytes) {
		return nil, fmt.Errorf("plan: frame claims %d nodes but only %d bytes follow", count, len(data))
	}
	for i := 0; i < int(count); i++ {
		idx := d.f.appendNode()
		if len(data) < 2 {
			return nil, fmt.Errorf("plan: truncated node %d", idx)
		}
		d.f.Types[idx] = NodeType(data[0])
		cc, k := binary.Uvarint(data[1:])
		if k <= 0 || cc > count {
			return nil, fmt.Errorf("plan: node %d has invalid child count", idx)
		}
		d.f.ChildCount[idx] = int32(cc)
		data = data[1+k:]
		if len(data) < 4*8 {
			return nil, fmt.Errorf("plan: truncated node %d", idx)
		}
		d.f.EstRows[idx] = math.Float64frombits(binary.LittleEndian.Uint64(data[0:]))
		d.f.EstCost[idx] = math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
		d.f.ActualRows[idx] = math.Float64frombits(binary.LittleEndian.Uint64(data[16:]))
		d.f.ActualMS[idx] = math.Float64frombits(binary.LittleEndian.Uint64(data[24:]))
		data = data[32:]
	}
	if err := d.f.computeShape(); err != nil {
		return nil, err
	}
	d.f.rehash()
	return data, nil
}
