package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"dace/internal/plan"
)

// Miss workloads need requests whose fingerprint (and body bytes) never
// repeat, yet whose work is the same as the template's. The generator
// overwrites the low mantissa bits of the root node's est_cost with a draw
// counter: est_cost is hashed into the fingerprint, so every draw is a new
// cache key, while the relative change (< 2^-18) leaves the model's input
// and the plan's size alone.

const (
	// perturbBits is how many low mantissa bits carry the counter.
	perturbBits = 34
	// partitionShift splits the counter space into 256 partitions of 2^26
	// draws: each concurrent caller owns one, so callers never collide and
	// never share a counter.
	partitionShift = 26
	// costWidth is the fixed width of the patched JSON number: %.16e of a
	// positive float64 with a two-digit exponent ("d.dddddddddddddddde+XX").
	// 17 significant digits round-trip every float64 exactly.
	costWidth = 22
)

// perturb returns base with its low mantissa bits replaced by k. Distinct
// k < 2^perturbBits give distinct float64s for one base.
func perturb(base float64, k uint64) float64 {
	const mask = uint64(1)<<perturbBits - 1
	return math.Float64frombits(math.Float64bits(base)&^mask | k&mask)
}

// uniq hands one caller its private sequence of draw counters.
type uniq struct {
	next, end uint64
}

// newUniq opens a partition. The seed moves the starting point inside it
// (by up to half the partition), so different seeds send different bytes.
func newUniq(partition int, seed int64) *uniq {
	if partition < 0 || partition >= 1<<(perturbBits-partitionShift) {
		panic("benchmark: perturbation partition out of range")
	}
	lo := uint64(partition) << partitionShift
	return &uniq{next: lo + uint64(seed&0x3ff)<<15, end: lo + 1<<partitionShift}
}

func (u *uniq) draw() uint64 {
	if u.next == u.end {
		panic("benchmark: perturbation counter space exhausted")
	}
	k := u.next
	u.next++
	return k
}

// jsonTemplate is one /predict JSON body whose root est_cost occupies
// body[off:off+costWidth] and is rewritten in place per draw.
type jsonTemplate struct {
	body []byte
	off  int
	base float64
}

// newJSONTemplate renders p as compact JSON (SQL text dropped: the model
// never sees it) with the root est_cost widened to the fixed-width field.
func newJSONTemplate(p *plan.Plan) (jsonTemplate, error) {
	doc := plan.Plan{Database: p.Database, Root: p.Root}
	raw, err := json.Marshal(&doc)
	if err != nil {
		return jsonTemplate{}, err
	}
	// The root is the first node object, and est_cost precedes children in
	// plan.Node's field order, so the first est_cost key is the root's.
	key := []byte(`"est_cost":`)
	i := bytes.Index(raw, key)
	if i < 0 {
		return jsonTemplate{}, fmt.Errorf("benchmark: plan JSON has no est_cost")
	}
	start := i + len(key)
	end := start
	for end < len(raw) && raw[end] != ',' && raw[end] != '}' {
		end++
	}
	base := p.Root.EstCost
	if !(base > 1e-99 && base < 1e99) {
		return jsonTemplate{}, fmt.Errorf("benchmark: root est_cost %v outside the fixed-width range", base)
	}
	body := make([]byte, 0, len(raw)+costWidth)
	body = append(body, raw[:start]...)
	body = strconv.AppendFloat(body, base, 'e', 16, 64)
	if len(body)-start != costWidth {
		return jsonTemplate{}, fmt.Errorf("benchmark: est_cost rendered %d bytes wide, want %d", len(body)-start, costWidth)
	}
	body = append(body, raw[end:]...)
	return jsonTemplate{body: body, off: start, base: base}, nil
}

// clone gives a client its own patchable copy.
func (t jsonTemplate) clone() jsonTemplate {
	t.body = bytes.Clone(t.body)
	return t
}

// patch rewrites the root est_cost for draw k and returns the body.
func (t jsonTemplate) patch(k uint64) []byte {
	strconv.AppendFloat(t.body[t.off:t.off], perturb(t.base, k), 'e', 16, 64)
	return t.body
}

// binBatch is one /predict/batch binary frame over a fixed set of plans;
// offs[i] locates plan i's root est_cost (8 bytes, little-endian).
type binBatch struct {
	body  []byte
	offs  []int
	bases []float64
}

func newBinBatch(plans []*plan.Plan) (binBatch, error) {
	// Header, count, then plan bodies one at a time so that each root's
	// offset is known.
	hdr := len(plan.AppendBinaryFrameHeader(nil))
	b := binBatch{body: plan.AppendBinaryBatchCount(plan.AppendBinaryFrameHeader(nil), len(plans))}
	for i, p := range plans {
		one, err := plan.AppendBinary(nil, p)
		if err != nil {
			return b, fmt.Errorf("plan[%d]: %w", i, err)
		}
		planBody := one[hdr:]
		// database length+bytes, node count, then the root: type byte,
		// child count, est_rows, est_cost.
		_, k := binary.Uvarint(planBody)
		o := k + len(p.Database)
		_, k = binary.Uvarint(planBody[o:])
		o += k + 1
		_, k = binary.Uvarint(planBody[o:])
		o += k + 8
		b.offs = append(b.offs, len(b.body)+o)
		b.bases = append(b.bases, p.Root.EstCost)
		b.body = append(b.body, planBody...)
	}
	return b, nil
}

// patch gives every plan of the frame a fresh fingerprint.
func (b binBatch) patch(u *uniq) []byte {
	for i, o := range b.offs {
		binary.LittleEndian.PutUint64(b.body[o:], math.Float64bits(perturb(b.bases[i], u.draw())))
	}
	return b.body
}
