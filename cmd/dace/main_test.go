package main

import (
	"strings"
	"testing"

	"dace/internal/plan"
)

// readPlan refuses what /predict refuses, so `dace predict` exits with an
// error instead of indexing past the model's feature block.
func TestReadPlan(t *testing.T) {
	for _, tc := range []struct {
		name, doc, err string
		nodes          int
	}{
		{"valid", `{"database":"imdb","root":{"type":3,"est_rows":10,"est_cost":20,"children":[{"type":0,"est_rows":5,"est_cost":7}]}}`, "", 2},
		{"no root", `{"database":"imdb"}`, "plan has no root", 0},
		{"unknown type", `{"root":{"type":99,"est_rows":1,"est_cost":1}}`, "unknown operator type 99", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := readPlan(strings.NewReader(tc.doc))
			switch {
			case tc.err == "" && err != nil:
				t.Fatalf("readPlan: %v", err)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Fatalf("readPlan error %v, want one naming %q", err, tc.err)
			case tc.err == "" && f.Len() != tc.nodes:
				t.Fatalf("readPlan: %d nodes, want %d", f.Len(), tc.nodes)
			}
		})
	}
}

// dace encode refuses the plans readPlan refuses, single and -batch alike,
// with the same message: no frame is written for a plan /predict would turn
// away with 400.
func TestEncodeJSON(t *testing.T) {
	const (
		valid  = `{"database":"imdb","root":{"type":3,"est_rows":10,"est_cost":20,"children":[{"type":0,"est_rows":5,"est_cost":7}]}}`
		noRoot = `{"database":"imdb"}`
		badTy  = `{"root":{"type":99,"est_rows":1,"est_cost":1}}`
	)
	for _, tc := range []struct {
		name, doc string
		batch     bool
		err       string
		plans     int
	}{
		{"valid", valid, false, "", 1},
		{"no root", noRoot, false, "plan has no root", 0},
		{"unknown type", badTy, false, "unknown operator type 99", 0},
		{"batch valid", "[" + valid + "," + valid + "]", true, "", 2},
		{"batch no root", "[" + valid + "," + noRoot + "]", true, "plan[1]: plan has no root", 0},
		{"batch unknown type", "[" + badTy + "]", true, "plan[0]: plan node 0 has unknown operator type 99", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := encodeJSON([]byte(tc.doc), tc.batch)
			switch {
			case tc.err != "":
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("encodeJSON error %v, want one naming %q", err, tc.err)
				}
				if enc != nil {
					t.Fatalf("encodeJSON wrote %d bytes for a refused plan", len(enc))
				}
			case err != nil:
				t.Fatalf("encodeJSON: %v", err)
			case tc.batch:
				bb, err := plan.NewBinaryBatch(enc)
				if err != nil || bb.Len() != tc.plans {
					t.Fatalf("batch frame: %v, %d plans, want %d", err, bb.Len(), tc.plans)
				}
			default:
				var d plan.Decoder
				if f, err := d.DecodeBinary(enc); err != nil || f.Len() != 2 {
					t.Fatalf("frame decodes to %v, %v; want the 2-node plan", f, err)
				}
			}
		})
	}
	// The message is readPlan's, word for word.
	_, want := readPlan(strings.NewReader(badTy))
	if _, err := encodeJSON([]byte(badTy), false); err == nil || err.Error() != want.Error() {
		t.Fatalf("encodeJSON says %v, readPlan %v", err, want)
	}
}
