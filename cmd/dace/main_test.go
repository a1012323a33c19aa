package main

import (
	"strings"
	"testing"
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
