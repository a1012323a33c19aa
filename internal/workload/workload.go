// Package workload models SQL workloads: structured select-project-join
// queries over a schema.Database, their SQL rendering, and the generators
// for the paper's three workload families — the Zero-Shot-style "complex"
// workload per database (Workloads 1 and 2), the MSCN benchmark splits on
// IMDB (Workload 3: synthetic, scale, JOB-light), and the TPC-H scale
// series used by the data-drift experiment.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dace/internal/plan"
	"dace/internal/schema"
)

// Query is a structured SPJ(+aggregate) query. Joins always follow the
// schema's foreign keys, as in the benchmarks the paper uses.
type Query struct {
	Database  string
	Tables    []string
	Joins     []schema.ForeignKey
	Filters   map[string][]plan.Predicate // keyed by table name
	Aggregate bool
	GroupBy   string // qualified column, empty for plain aggregate
	Limit     int    // 0 = no limit
	ID        string // stable identifier, seeds execution noise
}

// NumPredicates counts filter predicates across all tables.
func (q *Query) NumPredicates() int {
	n := 0
	for _, ps := range q.Filters {
		n += len(ps)
	}
	return n
}

// SQL renders the query as PostgreSQL-flavored text.
func (q *Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	switch {
	case q.Aggregate && q.GroupBy != "":
		fmt.Fprintf(&b, "%s, COUNT(*)", q.GroupBy)
	case q.Aggregate:
		b.WriteString("COUNT(*)")
	default:
		b.WriteString("*")
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(q.Tables, ", "))
	var conds []string
	for _, j := range q.Joins {
		conds = append(conds, fmt.Sprintf("%s.%s = %s.%s", j.ChildTable, j.ChildColumn, j.ParentTable, j.ParentColumn))
	}
	tables := append([]string(nil), q.Tables...)
	sort.Strings(tables)
	for _, t := range tables {
		for _, p := range q.Filters[t] {
			conds = append(conds, fmt.Sprintf("%s.%s %s %g", t, p.Column, p.Op, p.Value))
		}
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	if q.Aggregate && q.GroupBy != "" {
		fmt.Fprintf(&b, " GROUP BY %s", q.GroupBy)
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	b.WriteString(";")
	return b.String()
}

// Validate checks that the query is well-formed against its database.
func (q *Query) Validate(db *schema.Database) error {
	if db.Name != q.Database {
		return fmt.Errorf("workload: query for %q validated against %q", q.Database, db.Name)
	}
	inQuery := map[string]bool{}
	for _, t := range q.Tables {
		if db.Table(t) == nil {
			return fmt.Errorf("workload: unknown table %q", t)
		}
		if inQuery[t] {
			return fmt.Errorf("workload: duplicate table %q", t)
		}
		inQuery[t] = true
	}
	if len(q.Joins) != len(q.Tables)-1 {
		return fmt.Errorf("workload: %d joins for %d tables (tree joins required)", len(q.Joins), len(q.Tables))
	}
	for _, j := range q.Joins {
		if !inQuery[j.ChildTable] || !inQuery[j.ParentTable] {
			return fmt.Errorf("workload: join %s→%s references table outside query", j.ChildTable, j.ParentTable)
		}
	}
	for t, preds := range q.Filters {
		tab := db.Table(t)
		if tab == nil || !inQuery[t] {
			return fmt.Errorf("workload: filters on table %q not in query", t)
		}
		for _, p := range preds {
			if tab.Column(p.Column) == nil {
				return fmt.Errorf("workload: filter on unknown column %s.%s", t, p.Column)
			}
		}
	}
	return nil
}

// Generator produces random queries over one database.
type Generator struct {
	DB  *schema.Database
	rng *rand.Rand

	// MaxJoins bounds the number of join edges (tables - 1). Complex
	// workloads use up to 5; MSCN-style synthetic uses up to 2.
	MaxJoins int
	// MaxFiltersPerTable bounds predicates per table.
	MaxFiltersPerTable int
	// MinFilters forces at least this many predicates per query (the MSCN
	// benchmark's queries always filter something).
	MinFilters int
	// AggProb is the probability a query aggregates.
	AggProb float64
}

// NewGenerator builds a generator with Zero-Shot-"complex" defaults.
func NewGenerator(db *schema.Database, seed int64) *Generator {
	return &Generator{
		DB:                 db,
		rng:                rand.New(rand.NewSource(seed)),
		MaxJoins:           5,
		MaxFiltersPerTable: 3,
		AggProb:            0.5,
	}
}

// Generate produces n queries.
func (g *Generator) Generate(n int) []*Query {
	out := make([]*Query, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.One(fmt.Sprintf("%s-q%06d", g.DB.Name, i)))
	}
	return out
}

// One produces a single random query with the given stable ID.
func (g *Generator) One(id string) *Query {
	q := &Query{Database: g.DB.Name, Filters: map[string][]plan.Predicate{}, ID: id}

	// Start from a random table and grow along the FK graph.
	start := g.DB.Tables[g.rng.Intn(len(g.DB.Tables))]
	joined := map[string]bool{start.Name: true}
	q.Tables = []string{start.Name}
	nJoins := g.rng.Intn(g.MaxJoins + 1)
	for j := 0; j < nJoins; j++ {
		candidates := g.DB.JoinableWith(joined)
		if len(candidates) == 0 {
			break
		}
		fk := candidates[g.rng.Intn(len(candidates))]
		q.Joins = append(q.Joins, fk)
		next := fk.ChildTable
		if joined[next] {
			next = fk.ParentTable
		}
		joined[next] = true
		q.Tables = append(q.Tables, next)
	}

	// Filters: skip key columns used by this query's joins.
	joinCols := map[string]bool{}
	for _, fk := range q.Joins {
		joinCols[fk.ChildTable+"."+fk.ChildColumn] = true
		joinCols[fk.ParentTable+"."+fk.ParentColumn] = true
	}
	for _, tn := range q.Tables {
		t := g.DB.Table(tn)
		var candidates []schema.Column
		for _, c := range t.Columns {
			if !joinCols[tn+"."+c.Name] {
				candidates = append(candidates, c)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		nf := g.rng.Intn(g.MaxFiltersPerTable + 1)
		for f := 0; f < nf && f < len(candidates); f++ {
			c := candidates[g.rng.Intn(len(candidates))]
			q.Filters[tn] = append(q.Filters[tn], g.predicate(c))
		}
	}

	for q.NumPredicates() < g.MinFilters {
		tn := q.Tables[g.rng.Intn(len(q.Tables))]
		t := g.DB.Table(tn)
		var candidates []schema.Column
		for _, c := range t.Columns {
			if !joinCols[tn+"."+c.Name] {
				candidates = append(candidates, c)
			}
		}
		if len(candidates) == 0 {
			break // pathological schema; give up on the minimum
		}
		c := candidates[g.rng.Intn(len(candidates))]
		q.Filters[tn] = append(q.Filters[tn], g.predicate(c))
	}

	if g.rng.Float64() < g.AggProb {
		q.Aggregate = true
		if g.rng.Float64() < 0.4 && len(q.Tables) > 0 {
			t := g.DB.Table(q.Tables[0])
			c := t.Columns[g.rng.Intn(len(t.Columns))]
			q.GroupBy = t.Name + "." + c.Name
		}
	} else if g.rng.Float64() < 0.15 {
		q.Limit = 10 * (1 + g.rng.Intn(100))
	}
	return q
}

func (g *Generator) predicate(c schema.Column) plan.Predicate {
	ops := []string{"=", "<", ">", "<=", ">="}
	op := ops[g.rng.Intn(len(ops))]
	// Values drawn uniformly over the domain; the column's distribution then
	// dictates the actual selectivity (skewed columns yield skewed
	// selectivities, as in real workloads).
	v := c.Min + g.rng.Float64()*(c.Max-c.Min)
	if c.NDV < 1000 {
		// Snap small domains to integers, like categorical predicates.
		v = float64(int64(v))
	}
	return plan.Predicate{Column: c.Name, Op: op, Value: v}
}

// Complex generates the Zero-Shot-style workload for one database: n
// queries with up to 5 joins and mixed filters/aggregates.
func Complex(db *schema.Database, n int, seed int64) []*Query {
	return NewGenerator(db, seed).Generate(n)
}

// MSCNSplit identifies the three Workload-3 test splits.
type MSCNSplit int

// The Workload-3 splits.
const (
	Synthetic MSCNSplit = iota
	Scale
	JOBLight
)

// String names the split as the paper's tables do.
func (s MSCNSplit) String() string {
	switch s {
	case Synthetic:
		return "Synthetic"
	case Scale:
		return "Scale"
	case JOBLight:
		return "JOB-light"
	}
	return fmt.Sprintf("MSCNSplit(%d)", int(s))
}

// MSCN generates an MSCN-benchmark-style workload on the given (IMDB-like)
// database: Synthetic and Scale use 0–2 joins; JOB-light uses 1–4 joins
// with sparse predicates. Each split uses a disjoint seed space from the
// training pool (see MSCNTraining).
func MSCN(db *schema.Database, split MSCNSplit, n int) []*Query {
	g := NewGenerator(db, int64(schema.Hash64("mscn-split", db.Name, split.String())))
	switch split {
	case Synthetic, Scale:
		g.MaxJoins = 2
		g.MaxFiltersPerTable = 3
		g.AggProb = 1 // MSCN queries are COUNT(*) cardinality/cost probes
	case JOBLight:
		g.MaxJoins = 4
		g.MaxFiltersPerTable = 1
		g.AggProb = 1
	}
	g.MinFilters = 1
	qs := g.Generate(n)
	for i, q := range qs {
		q.ID = fmt.Sprintf("%s-%s-%04d", db.Name, strings.ToLower(split.String()), i)
		q.GroupBy = "" // plain COUNT(*)
	}
	return qs
}

// MSCNTraining generates the within-database training pool for Workload 3
// (the paper uses 100k; callers scale it down for CPU budgets).
func MSCNTraining(db *schema.Database, n int) []*Query {
	g := NewGenerator(db, int64(schema.Hash64("mscn-train", db.Name)))
	g.MaxJoins = 4
	g.MaxFiltersPerTable = 3
	g.AggProb = 1
	qs := g.Generate(n)
	for i, q := range qs {
		q.ID = fmt.Sprintf("%s-train-%06d", db.Name, i)
		q.GroupBy = ""
	}
	return qs
}
