package schema

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestBenchmark20ShapeAndValidity(t *testing.T) {
	dbs := Benchmark20()
	if len(dbs) != 20 {
		t.Fatalf("Benchmark20 returned %d databases, want 20", len(dbs))
	}
	names := map[string]bool{}
	for _, db := range dbs {
		if err := db.Validate(); err != nil {
			t.Errorf("database %q invalid: %v", db.Name, err)
		}
		if names[db.Name] {
			t.Errorf("duplicate database name %q", db.Name)
		}
		names[db.Name] = true
		if len(db.Tables) < 2 {
			t.Errorf("database %q has only %d tables", db.Name, len(db.Tables))
		}
		if len(db.FKs) == 0 {
			t.Errorf("database %q has no foreign keys", db.Name)
		}
	}
	if !names["imdb"] || !names["tpc_h"] {
		t.Fatal("benchmark must include imdb and tpc_h")
	}
}

func TestBenchmarkDeterminism(t *testing.T) {
	a := BenchmarkDB("walmart")
	b := BenchmarkDB("walmart")
	if len(a.Tables) != len(b.Tables) {
		t.Fatal("generation not deterministic in table count")
	}
	for i := range a.Tables {
		if a.Tables[i].Name != b.Tables[i].Name || a.Tables[i].Rows != b.Tables[i].Rows {
			t.Fatal("generation not deterministic in table shape")
		}
		if len(a.Tables[i].Columns) != len(b.Tables[i].Columns) {
			t.Fatal("generation not deterministic in columns")
		}
	}
}

func TestGeneratedDatabasesDiffer(t *testing.T) {
	a, b := BenchmarkDB("airline"), BenchmarkDB("walmart")
	if len(a.Tables) == len(b.Tables) && a.Tables[0].Rows == b.Tables[0].Rows {
		t.Fatal("distinct databases look identical; generator ignores the name")
	}
}

func TestTPCHScaling(t *testing.T) {
	small := TPCH(1)
	big := TPCH(10)
	ls, lb := small.Table("lineitem"), big.Table("lineitem")
	if lb.Rows != ls.Rows*10 {
		t.Fatalf("lineitem scaling wrong: %d vs %d", ls.Rows, lb.Rows)
	}
	if r := big.Table("region"); r.Rows != 5 {
		t.Fatalf("region should not scale, got %d rows", r.Rows)
	}
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTPCHInvalidScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive scale")
		}
	}()
	TPCH(0)
}

func TestTableAndColumnLookup(t *testing.T) {
	db := IMDB()
	title := db.Table("title")
	if title == nil {
		t.Fatal("imdb lacks title")
	}
	if title.Column("production_year") == nil {
		t.Fatal("title lacks production_year")
	}
	if db.Table("nope") != nil || title.Column("nope") != nil {
		t.Fatal("lookup should return nil for unknown names")
	}
}

func TestJoinableWithAndFKBetween(t *testing.T) {
	db := IMDB()
	joined := map[string]bool{"title": true}
	fks := db.JoinableWith(joined)
	if len(fks) != 5 {
		t.Fatalf("title should join to 5 satellites, got %d", len(fks))
	}
	if _, ok := db.FKBetween("cast_info", "title"); !ok {
		t.Fatal("FKBetween missed cast_info→title")
	}
	if _, ok := db.FKBetween("title", "cast_info"); !ok {
		t.Fatal("FKBetween must be orientation-agnostic")
	}
	if _, ok := db.FKBetween("cast_info", "movie_info"); ok {
		t.Fatal("no FK between satellites")
	}
}

func TestValidateCatchesBreakage(t *testing.T) {
	db := IMDB()
	db.FKs = append(db.FKs, ForeignKey{ChildTable: "ghost", ChildColumn: "x", ParentTable: "title", ParentColumn: "id"})
	if err := db.Validate(); err == nil {
		t.Fatal("expected validation error for dangling FK")
	}
}

func TestHashDeterminismAndRange(t *testing.T) {
	if Hash64("a", "b") != Hash64("a", "b") {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64("a", "b") == Hash64("ab") {
		t.Fatal("Hash64 must separate parts (collision between [a b] and [ab])")
	}
	f := func(a, b string) bool {
		u := HashUnit(a, b)
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashNormalMoments(t *testing.T) {
	var sum, sumSq float64
	const n = 2000
	for i := 0; i < n; i++ {
		v := HashNormal("moment", string(rune(i)), "x")
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if mean < -0.15 || mean > 0.15 {
		t.Fatalf("HashNormal mean %v too far from 0", mean)
	}
	if variance < 0.7 || variance > 1.3 {
		t.Fatalf("HashNormal variance %v too far from 1", variance)
	}
}

// Validate checks referential integrity of the catalog: the tests' check
// on every generated database.
func (d *Database) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("schema: database has no name")
	}
	seen := map[string]bool{}
	for _, t := range d.Tables {
		if seen[t.Name] {
			return fmt.Errorf("schema: duplicate table %q", t.Name)
		}
		seen[t.Name] = true
		if t.Rows <= 0 {
			return fmt.Errorf("schema: table %q has %d rows", t.Name, t.Rows)
		}
		if len(t.Columns) == 0 {
			return fmt.Errorf("schema: table %q has no columns", t.Name)
		}
		for _, c := range t.Columns {
			if c.NDV <= 0 || c.Max < c.Min {
				return fmt.Errorf("schema: column %s.%s has invalid domain", t.Name, c.Name)
			}
			if c.NullFrac < 0 || c.NullFrac >= 1 {
				return fmt.Errorf("schema: column %s.%s has null fraction %g", t.Name, c.Name, c.NullFrac)
			}
		}
	}
	for _, fk := range d.FKs {
		ct, pt := d.Table(fk.ChildTable), d.Table(fk.ParentTable)
		if ct == nil || pt == nil {
			return fmt.Errorf("schema: fk %s.%s→%s.%s references missing table",
				fk.ChildTable, fk.ChildColumn, fk.ParentTable, fk.ParentColumn)
		}
		if ct.Column(fk.ChildColumn) == nil || pt.Column(fk.ParentColumn) == nil {
			return fmt.Errorf("schema: fk %s.%s→%s.%s references missing column",
				fk.ChildTable, fk.ChildColumn, fk.ParentTable, fk.ParentColumn)
		}
	}
	return nil
}
