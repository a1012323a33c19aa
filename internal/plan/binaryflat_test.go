package plan

import (
	"bytes"
	"fmt"
	"testing"
)

// TestAppendBinaryFlatMatchesTree asserts the flat re-encode path produces
// byte-identical frames to the tree encoder, for single frames and
// hand-assembled batch frames, across a corpus of decoded plans — the
// gateway's forwarding contract: re-encoding a decoded plan must not change
// a single wire byte.
func TestAppendBinaryFlatMatchesTree(t *testing.T) {
	var dec Decoder
	for _, p := range binaryDocs(t) {
		wantSingle, err := AppendBinary(nil, p)
		if err != nil {
			t.Fatalf("AppendBinary: %v", err)
		}
		f, err := dec.DecodeBinary(wantSingle)
		if err != nil {
			t.Fatalf("DecodeBinary: %v", err)
		}
		got, err := f.AppendBinaryFrame(nil)
		if err != nil {
			t.Fatalf("AppendBinaryFrame: %v", err)
		}
		if !bytes.Equal(got, wantSingle) {
			t.Fatalf("flat re-encode diverged from tree encode\n got %x\nwant %x", got, wantSingle)
		}
	}

	// Batch frame: header + count + bodies equals AppendBinaryBatch.
	plans := binaryDocs(t)
	wantBatch, err := AppendBinaryBatch(nil, plans)
	if err != nil {
		t.Fatalf("AppendBinaryBatch: %v", err)
	}
	gotBatch := AppendBinaryBatchCount(AppendBinaryFrameHeader(nil), len(plans))
	for _, p := range plans {
		single, err := AppendBinary(nil, p)
		if err != nil {
			t.Fatalf("AppendBinary: %v", err)
		}
		f, err := dec.DecodeBinary(single)
		if err != nil {
			t.Fatalf("DecodeBinary: %v", err)
		}
		if gotBatch, err = f.AppendBinaryBody(gotBatch); err != nil {
			t.Fatalf("AppendBinaryBody: %v", err)
		}
	}
	if !bytes.Equal(gotBatch, wantBatch) {
		t.Fatalf("assembled batch frame diverged from AppendBinaryBatch")
	}
}

// TestAppendBinaryFlatRejectsWideTypes: a type that does not fit the wire's
// one type byte must error, not truncate.
func TestAppendBinaryFlatRejectsWideTypes(t *testing.T) {
	var f FlatPlan
	f.appendNode()
	f.Types[0] = 300
	if _, err := f.AppendBinaryBody(nil); err == nil {
		t.Fatal("expected error for node type 300")
	}
	f.Types[0] = -1
	if _, err := f.AppendBinaryBody(nil); err == nil {
		t.Fatal("expected error for node type -1")
	}
}

// TestAppendBinaryFlatZeroAlloc guards the re-encode hot path: appending
// into a pre-grown buffer must not allocate.
func TestAppendBinaryFlatZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard")
	}
	p := binaryDocs(t)[0]
	frame, err := AppendBinary(nil, p)
	if err != nil {
		t.Fatalf("AppendBinary: %v", err)
	}
	var dec Decoder
	f, err := dec.DecodeBinary(frame)
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	buf := make([]byte, 0, 2*len(frame))
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = f.AppendBinaryFrame(buf[:0]); err != nil {
			t.Fatalf("AppendBinaryFrame: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendBinaryFrame allocates %.1f/op, want 0", allocs)
	}
}

// TestCloneOwnsItsMemory: a clone is equal to its source, survives the
// decoder's next call, and shares no array with it.
func TestCloneOwnsItsMemory(t *testing.T) {
	var dec Decoder
	frame := func(p *Plan) []byte {
		b, err := AppendBinary(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	src := samplePlan()
	f, err := dec.DecodeBinary(frame(src))
	if err != nil {
		t.Fatal(err)
	}
	c := f.Clone()
	if _, err := dec.DecodeBinary(frame(&Plan{Database: "other", Root: &Node{Type: Sort, EstRows: 7, EstCost: 7}})); err != nil {
		t.Fatal(err)
	}
	want := new(FlatPlan).FromTree(src)
	if c.Fingerprint != want.Fingerprint || c.Database() != src.Database || c.Check() != nil ||
		fmt.Sprint(c.Types, c.ChildCount, c.EstRows, c.EstCost, c.ActualRows, c.ActualMS, c.Heights, c.Subtree) !=
			fmt.Sprint(want.Types, want.ChildCount, want.EstRows, want.EstCost, want.ActualRows, want.ActualMS, want.Heights, want.Subtree) {
		t.Fatalf("clone changed when its decoder was reused: %+v", c)
	}
	got, err := c.AppendBinaryFrame(nil)
	if err != nil || !bytes.Equal(got, frame(src)) {
		t.Fatalf("clone re-encodes differently from its source (%v)", err)
	}
}
