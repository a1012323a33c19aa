package workload

import (
	"strings"
	"testing"

	"dace/internal/schema"
)

func TestComplexQueriesValidate(t *testing.T) {
	for _, db := range schema.Benchmark20()[:5] {
		qs := Complex(db, 50, 7)
		if len(qs) != 50 {
			t.Fatalf("%s: got %d queries", db.Name, len(qs))
		}
		for _, q := range qs {
			if err := q.Validate(db); err != nil {
				t.Fatalf("%s: invalid query %s: %v\nSQL: %s", db.Name, q.ID, err, q.SQL())
			}
		}
	}
}

func TestGenerationDeterministic(t *testing.T) {
	db := schema.IMDB()
	a := Complex(db, 20, 42)
	b := Complex(db, 20, 42)
	for i := range a {
		if a[i].SQL() != b[i].SQL() {
			t.Fatalf("query %d differs between runs:\n%s\n%s", i, a[i].SQL(), b[i].SQL())
		}
	}
	c := Complex(db, 20, 43)
	same := 0
	for i := range a {
		if a[i].SQL() == c[i].SQL() {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestWorkloadDiversity(t *testing.T) {
	db := schema.IMDB()
	qs := Complex(db, 200, 1)
	joins := map[int]int{}
	withFilters, withAgg := 0, 0
	for _, q := range qs {
		joins[len(q.Joins)]++
		if q.NumPredicates() > 0 {
			withFilters++
		}
		if q.Aggregate {
			withAgg++
		}
	}
	if len(joins) < 4 {
		t.Fatalf("join-count diversity too low: %v", joins)
	}
	if withFilters < 100 || withAgg < 50 {
		t.Fatalf("workload lacks filters (%d) or aggregates (%d)", withFilters, withAgg)
	}
}

func TestSQLRendering(t *testing.T) {
	db := schema.IMDB()
	qs := Complex(db, 100, 3)
	for _, q := range qs {
		sql := q.SQL()
		if !strings.HasPrefix(sql, "SELECT ") || !strings.Contains(sql, " FROM ") || !strings.HasSuffix(sql, ";") {
			t.Fatalf("malformed SQL: %s", sql)
		}
		if len(q.Joins) > 0 && !strings.Contains(sql, " WHERE ") {
			t.Fatalf("join query lost its conditions: %s", sql)
		}
		if q.Aggregate && !strings.Contains(sql, "COUNT(*)") {
			t.Fatalf("aggregate query without COUNT: %s", sql)
		}
	}
}

func TestMSCNSplitsShape(t *testing.T) {
	db := schema.IMDB()
	for _, tc := range []struct {
		split    MSCNSplit
		n        int
		maxJoins int
	}{
		{Synthetic, 100, 2},
		{Scale, 50, 2},
		{JOBLight, 70, 4},
	} {
		qs := MSCN(db, tc.split, tc.n)
		if len(qs) != tc.n {
			t.Fatalf("%s: %d queries, want %d", tc.split, len(qs), tc.n)
		}
		for _, q := range qs {
			if err := q.Validate(db); err != nil {
				t.Fatalf("%s: %v", tc.split, err)
			}
			if len(q.Joins) > tc.maxJoins {
				t.Fatalf("%s: query with %d joins exceeds %d", tc.split, len(q.Joins), tc.maxJoins)
			}
			if !q.Aggregate {
				t.Fatalf("%s: MSCN queries must be COUNT(*) probes", tc.split)
			}
		}
	}
}

func TestMSCNSplitsDisjointFromTraining(t *testing.T) {
	db := schema.IMDB()
	train := MSCNTraining(db, 300)
	test := MSCN(db, JOBLight, 70)
	seen := map[string]bool{}
	for _, q := range train {
		seen[q.SQL()] = true
	}
	overlap := 0
	for _, q := range test {
		if seen[q.SQL()] {
			overlap++
		}
	}
	if overlap > 3 {
		t.Fatalf("test split overlaps training pool on %d/70 queries", overlap)
	}
}

func TestValidateRejections(t *testing.T) {
	db := schema.IMDB()
	good := NewGenerator(db, 1).One("g")
	bad := *good
	bad.Database = "other"
	if err := bad.Validate(db); err == nil {
		t.Fatal("wrong database accepted")
	}
	bad2 := *good
	bad2.Tables = append(append([]string{}, good.Tables...), "ghost")
	if err := bad2.Validate(db); err == nil {
		t.Fatal("unknown table accepted")
	}
	if err := (&Query{Database: "imdb", Tables: []string{"title", "cast_info"}}).Validate(db); err == nil {
		t.Fatal("missing join accepted")
	}
}
