// Package schema models database catalogs: tables, columns, value
// distributions, foreign-key join graphs, and the (deliberately imperfect)
// statistics a query optimizer keeps about them.
//
// The reproduction's 20-database benchmark (mirroring the Zero-Shot
// benchmark the paper evaluates on) is generated here deterministically;
// see Benchmark20.
package schema

import (
	"fmt"
	"hash/fnv"
	"math"
)

// Distribution is the analytic family of a column's value distribution.
type Distribution int

// Supported distribution families.
const (
	Uniform Distribution = iota
	Zipf
	Normal
)

// String names the distribution family.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipf:
		return "zipf"
	case Normal:
		return "normal"
	}
	return fmt.Sprintf("Distribution(%d)", int(d))
}

// Column describes one attribute and its true value distribution. Min/Max
// bound the numeric domain; NDV is the true distinct-value count; Skew is
// the Zipf exponent (or the inverse spread for Normal).
type Column struct {
	Name     string
	Dist     Distribution
	Min, Max float64
	NDV      int64
	NullFrac float64
	Skew     float64
}

// Table is a named relation with true row count, columns, and an intra-table
// predicate correlation coefficient in [0, 1): the degree to which
// conjunctive filter selectivities deviate from the optimizer's independence
// assumption (0 = independent).
type Table struct {
	Name        string
	Rows        int64
	Columns     []Column
	Correlation float64
}

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	for i := range t.Columns {
		if t.Columns[i].Name == name {
			return &t.Columns[i]
		}
	}
	return nil
}

// ForeignKey declares that child rows reference parent rows. KeyCorr in
// [0, 1) is the strength of correlation between filter predicates and join
// fanout — the second classic source of optimizer error.
type ForeignKey struct {
	ChildTable   string
	ChildColumn  string
	ParentTable  string
	ParentColumn string
	KeyCorr      float64
}

// Database is a complete catalog.
type Database struct {
	Name   string
	Tables []*Table
	FKs    []ForeignKey
}

// Table returns the named table, or nil.
func (d *Database) Table(name string) *Table {
	for _, t := range d.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// JoinableWith returns the foreign keys that connect table name to any table
// in the joined set (in either direction). It drives join-graph-respecting
// query generation.
func (d *Database) JoinableWith(joined map[string]bool) []ForeignKey {
	var out []ForeignKey
	for _, fk := range d.FKs {
		if joined[fk.ChildTable] != joined[fk.ParentTable] { // exactly one side joined
			out = append(out, fk)
		}
	}
	return out
}

// FKBetween returns the foreign key connecting the two tables (either
// orientation) or false.
func (d *Database) FKBetween(a, b string) (ForeignKey, bool) {
	for _, fk := range d.FKs {
		if (fk.ChildTable == a && fk.ParentTable == b) || (fk.ChildTable == b && fk.ParentTable == a) {
			return fk, true
		}
	}
	return ForeignKey{}, false
}

// Hash64 produces a stable 64-bit hash of the given strings. The simulator
// uses it wherever a quantity must be *deterministic per entity* but
// unpredictable from model-visible features (e.g. filter/join-key
// correlation draws).
func Hash64(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// HashUnit maps Hash64 of parts to a deterministic value in [0, 1).
func HashUnit(parts ...string) float64 {
	return float64(Hash64(parts...)%1_000_003) / 1_000_003
}

// HashNormal maps Hash64 of parts to a deterministic standard normal value
// via Box–Muller over two independently salted hash uniforms.
func HashNormal(parts ...string) float64 {
	u1 := HashUnit(append(append([]string{}, parts...), "bm-u1")...)
	u2 := HashUnit(append(append([]string{}, parts...), "bm-u2")...)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
