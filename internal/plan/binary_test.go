package plan

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// AppendBinaryBatch appends one framed batch of plan trees to dst — the
// /predict/batch wire body — through the tree encoder: the reference the
// flat batch assembly (header, count, AppendBinaryBody per plan) is checked
// against.
func AppendBinaryBatch(dst []byte, plans []*Plan) ([]byte, error) {
	dst = append(dst, binMagic0, binMagic1, BinaryVersion)
	dst = binary.AppendUvarint(dst, uint64(len(plans)))
	var err error
	for i, p := range plans {
		if dst, err = appendBinaryPlan(dst, p); err != nil {
			return nil, fmt.Errorf("plan[%d]: %w", i, err)
		}
	}
	return dst, nil
}

func binaryDocs(t *testing.T) []*Plan {
	t.Helper()
	plans := []*Plan{samplePlan(), {Database: "empty"}, {}}
	for _, doc := range corpusDocs(t) {
		p, err := ReadJSON(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	return plans
}

func TestBinaryRoundTrip(t *testing.T) {
	var dec Decoder
	for _, p := range binaryDocs(t) {
		enc, err := AppendBinary(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := dec.DecodeBinary(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		checkFlatMatchesPlan(t, f, p)
		// Flat → tree → binary again must reproduce the identical frame.
		enc2, err := AppendBinary(nil, f.Tree())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("re-encode produced different bytes")
		}
	}
}

func TestBinaryBatchRoundTrip(t *testing.T) {
	plans := binaryDocs(t)
	enc, err := AppendBinaryBatch(nil, plans)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := NewBinaryBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if bb.Len() != len(plans) {
		t.Fatalf("batch length %d, want %d", bb.Len(), len(plans))
	}
	var dec Decoder
	for i := 0; bb.Len() > 0; i++ {
		f, err := bb.Next(&dec)
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		checkFlatMatchesPlan(t, f, plans[i])
	}
	if _, err := bb.Next(&dec); err == nil {
		t.Fatal("Next past the end must fail")
	}
}

func TestBinaryRejectsBadFrames(t *testing.T) {
	good, err := AppendBinary(nil, samplePlan())
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	mutate := func(m func(b []byte) []byte) []byte {
		return m(append([]byte(nil), good...))
	}
	for name, frame := range map[string][]byte{
		"empty":           {},
		"short":           {binMagic0},
		"bad magic":       mutate(func(b []byte) []byte { b[0] = 0x00; return b }),
		"future version":  mutate(func(b []byte) []byte { b[2] = BinaryVersion + 1; return b }),
		"version zero":    mutate(func(b []byte) []byte { b[2] = 0; return b }),
		"trailing bytes":  mutate(func(b []byte) []byte { return append(b, 0xFF) }),
		"truncated body":  good[:len(good)-5],
		"huge node count": {binMagic0, binMagic1, BinaryVersion, 0, 0xFF, 0xFF, 0xFF, 0x7F},
		"huge db length":  {binMagic0, binMagic1, BinaryVersion, 0xFF, 0xFF, 0x7F},
		// Child counts that don't form one tree.
		"forest": {binMagic0, binMagic1, BinaryVersion, 0, 2,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"dangling child claim": {binMagic0, binMagic1, BinaryVersion, 0, 1,
			0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		if _, err := dec.DecodeBinary(frame); err == nil {
			t.Fatalf("%s: decode accepted a bad frame", name)
		}
	}
	// Batch header rejections share checkBinaryHeader; spot-check the count
	// bound.
	if _, err := NewBinaryBatch([]byte{binMagic0, binMagic1, BinaryVersion, 0xFF, 0xFF, 0x7F}); err == nil {
		t.Fatal("batch accepted a hostile count")
	}
}

// TestBinaryEncodeRejects pins encoder-side validation.
func TestBinaryEncodeRejects(t *testing.T) {
	if _, err := AppendBinary(nil, &Plan{Root: &Node{Type: 300}}); err == nil {
		t.Fatal("encoded a node type outside the byte range")
	}
	if _, err := AppendBinary(nil, &Plan{Root: &Node{Children: []*Node{nil}}}); err == nil {
		t.Fatal("encoded a null child node")
	}
}

// TestDecodeBinaryZeroAlloc guards the steady-state allocation-free decode.
func TestDecodeBinaryZeroAlloc(t *testing.T) {
	enc, err := AppendBinary(nil, samplePlan())
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	if _, err := dec.DecodeBinary(enc); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := dec.DecodeBinary(enc); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("DecodeBinary allocates %.1f/op at steady state, want 0", avg)
	}
}

// FuzzBinaryRoundTrip drives JSON documents through stream decode → tree →
// binary encode → binary decode and demands a bitwise-identical flat plan,
// plus version-byte rejection on the same frame.
func FuzzBinaryRoundTrip(f *testing.F) {
	var sample bytes.Buffer
	samplePlan().WriteJSON(&sample)
	f.Add(sample.String())
	f.Add(`{"database":"d","root":{"type":0,"est_rows":10,"est_cost":3.5}}`)
	f.Add(`{"root":{"type":9,"est_rows":1e300,"est_cost":-0,"actual_rows":17,"children":[{"type":15,"est_rows":0.001,"est_cost":42}]}}`)
	f.Fuzz(func(t *testing.T, doc string) {
		var dec Decoder
		flat, err := dec.Decode([]byte(doc))
		if err != nil {
			return
		}
		p := flat.Tree()
		fp, n, db := flat.Fingerprint, flat.Len(), flat.Database()
		enc, err := AppendBinary(nil, p)
		if err != nil {
			// Only representable plans round-trip (type must fit a byte).
			return
		}
		rt, err := dec.DecodeBinary(enc)
		if err != nil {
			t.Fatalf("binary round-trip decode failed: %v", err)
		}
		if rt.Fingerprint != fp || rt.Len() != n || rt.Database() != db {
			t.Fatalf("binary round-trip changed the plan: %s/%d vs %s/%d", rt.Fingerprint, rt.Len(), fp, n)
		}
		// An unknown version byte must be rejected outright.
		enc[2] = BinaryVersion + 1
		if _, err := dec.DecodeBinary(enc); err == nil {
			t.Fatal("decoder accepted an unknown version byte")
		}
	})
}

// FuzzDecodeBinary throws arbitrary bytes at the binary decoder: it must
// never panic, and anything it accepts must re-encode to the same plan.
func FuzzDecodeBinary(f *testing.F) {
	good, _ := AppendBinary(nil, samplePlan())
	f.Add(good)
	f.Add([]byte{binMagic0, binMagic1, BinaryVersion, 0, 0})
	f.Add([]byte{binMagic0, binMagic1, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec Decoder
		flat, err := dec.DecodeBinary(data)
		if err != nil {
			return
		}
		fp := flat.Fingerprint
		if tp := flat.Tree().Fingerprint(); tp != fp {
			t.Fatalf("flat fingerprint %s but tree fingerprint %s", fp, tp)
		}
	})
}
