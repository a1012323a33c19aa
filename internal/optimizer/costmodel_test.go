package optimizer_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"dace/internal/core"
	"dace/internal/dataset"
	"dace/internal/executor"
	"dace/internal/optimizer"
	"dace/internal/plan"
	"dace/internal/schema"
	"dace/internal/workload"
)

// recorderModel is a CostModel that scores by classic cost (so the choice
// is unchanged) while counting how many candidates it was asked to score —
// the probe for pruning and candidate-volume assertions.
type recorderModel struct {
	scored  int
	batches int
}

func (r *recorderModel) AppendScoreCandidates(buf []float64, cands []*plan.Node) []float64 {
	r.scored += len(cands)
	r.batches++
	for _, c := range cands {
		buf = append(buf, c.EstCost)
	}
	return buf
}

// inverseModel prefers the classically most expensive candidate — the
// adversarial cost model that must change plans without corrupting them.
type inverseModel struct{}

func (inverseModel) AppendScoreCandidates(buf []float64, cands []*plan.Node) []float64 {
	for _, c := range cands {
		buf = append(buf, -c.EstCost)
	}
	return buf
}

// fingerprints plans qs and returns one fingerprint per query.
func fingerprints(t *testing.T, pl *optimizer.Planner, qs []*workload.Query) []plan.Fingerprint {
	t.Helper()
	out := make([]plan.Fingerprint, len(qs))
	for i, q := range qs {
		p, err := pl.Plan(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("query %d produced invalid plan: %v", i, err)
		}
		out[i] = p.Fingerprint()
	}
	return out
}

// TestPlanningDeterministicRepeated is the satellite determinism guard:
// repeated planning of the same workload — fresh planner each pass, across
// several databases — must reproduce byte-identical plans (fingerprints
// hash every model-visible feature, so any drifting tie-break shows up).
func TestPlanningDeterministicRepeated(t *testing.T) {
	for _, db := range schema.Benchmark20()[:4] {
		qs := workload.Complex(db, 50, 7)
		base := fingerprints(t, optimizer.New(db), qs)
		for pass := 0; pass < 3; pass++ {
			got := fingerprints(t, optimizer.New(db), qs)
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("%s query %d: pass %d planned %s, first pass %s",
						db.Name, i, pass, got[i], base[i])
				}
			}
		}
	}
}

// TestCostModelClassicScoresPreserveChoice: a cost model that scores by
// classic cost must reproduce the classic planner's plans exactly — the
// hook changes who compares, not what is compared.
func TestCostModelClassicScoresPreserveChoice(t *testing.T) {
	db := schema.IMDB()
	qs := workload.Complex(db, 40, 11)
	classic := fingerprints(t, optimizer.New(db), qs)
	rec := &recorderModel{}
	pl := optimizer.New(db)
	pl.CostModel = rec
	guided := fingerprints(t, pl, qs)
	for i := range classic {
		if guided[i] != classic[i] {
			t.Fatalf("query %d: classic-score cost model changed the plan: %s vs %s", i, guided[i], classic[i])
		}
	}
	if rec.scored == 0 {
		t.Fatal("cost model was never consulted")
	}
}

// TestCostModelCanChangePlansSafely: an adversarial model (prefer the
// classically most expensive join) must actually change plans — proof the
// hook steers the DP — while every plan stays valid, joins/scans still
// match the query, and nodes keep classic cumulative costs (children never
// cost more than parents).
func TestCostModelCanChangePlansSafely(t *testing.T) {
	db := schema.IMDB()
	qs := workload.Complex(db, 40, 11)
	classic := fingerprints(t, optimizer.New(db), qs)
	pl := optimizer.New(db)
	pl.CostModel = inverseModel{}
	pl.PruneFactor = 0               // score everything: maximal steering room
	pl.GatherThreshold = math.Inf(1) // keep cumulative costs monotone for the check below
	changed := 0
	for i, q := range qs {
		p, err := pl.Plan(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("query %d invalid: %v", i, err)
		}
		if p.Fingerprint() != classic[i] {
			changed++
		}
		joins, scans := 0, 0
		for _, n := range p.DFS() {
			if n.Type.IsJoin() {
				joins++
			}
			if n.Type.IsScan() && n.Type != plan.BitmapIndexScan {
				scans++
			}
			for _, c := range n.Children {
				if c.EstCost > n.EstCost+1e-9 {
					t.Fatalf("query %d: child %s classic cost %.2f exceeds parent %s %.2f — learned score leaked into EstCost",
						i, c.Type, c.EstCost, n.Type, n.EstCost)
				}
			}
		}
		if joins != len(q.Joins) || scans != len(q.Tables) {
			t.Fatalf("query %d: %d joins / %d scans for %d/%d", i, joins, scans, len(q.Joins), len(q.Tables))
		}
	}
	if changed == 0 {
		t.Fatal("inverse cost model never changed a plan; the hook is not steering the DP")
	}
}

// TestPruneFactorBoundsScoring: tightening PruneFactor must strictly shrink
// the candidate set the model scores, and disabling it (<= 0) must score
// the most.
func TestPruneFactorBoundsScoring(t *testing.T) {
	db := schema.IMDB()
	qs := workload.Complex(db, 40, 3)
	scoredAt := func(factor float64) int {
		rec := &recorderModel{}
		pl := optimizer.New(db)
		pl.CostModel = rec
		pl.PruneFactor = factor
		for _, q := range qs {
			if _, err := pl.Plan(q); err != nil {
				t.Fatal(err)
			}
		}
		return rec.scored
	}
	all := scoredAt(0)     // disabled: every candidate scored
	wide := scoredAt(10)   // default
	tight := scoredAt(1.0) // only candidates tied with the classic optimum
	if !(tight < wide && wide <= all) {
		t.Fatalf("pruning not monotone: tight=%d wide=%d all=%d", tight, wide, all)
	}
	if tight == 0 {
		t.Fatal("PruneFactor=1 must still score the classically optimal candidates")
	}
}

// daceModel trains a small DACE model on the database's own workload.
func daceModel(t *testing.T, db *schema.Database) *core.Model {
	t.Helper()
	samples, err := dataset.ComplexWorkload(db, 60, executor.M1())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.DK, cfg.DV = 32, 32
	cfg.Hidden = []int{32, 16, 1}
	cfg.LoRARanks = []int{8, 4, 2}
	cfg.Epochs = 2
	return core.Train(dataset.Plans(samples), cfg)
}

// checkedScorer is a core.Scorer as the planner sees it, with every score
// the DP asks for — candidates it goes on to reject included — compared
// bitwise against the unmemoized root prediction for that candidate.
type checkedScorer struct {
	t       *testing.T
	m       *core.Model
	sc      *core.Scorer
	ref     []float64
	checked int
}

func (c *checkedScorer) AppendScoreCandidates(buf []float64, cands []*plan.Node) []float64 {
	base := len(buf)
	buf = c.sc.AppendScoreCandidates(buf, cands)
	for i, cand := range cands {
		c.ref = c.m.AppendPredictSubPlans(c.ref[:0], &plan.Plan{Root: cand})
		if got := buf[base+i]; math.Float64bits(got) != math.Float64bits(c.ref[0]) {
			c.t.Fatalf("DP candidate %d: memoized score %v != unmemoized root prediction %v",
				c.checked+i, got, c.ref[0])
		}
	}
	c.checked += len(cands)
	return buf
}

// TestDACEGuidedPlanningDeterministic is the end-to-end loop: a real
// core.Scorer as the planner's cost model. Plans must validate and be
// reproducible run-to-run — including across scorer Reset (memoized scores
// are bitwise-identical to unmemoized on the candidate stream the DP
// actually prices, so cache state cannot steer the DP).
func TestDACEGuidedPlanningDeterministic(t *testing.T) {
	db := schema.IMDB()
	m := daceModel(t, db)
	sc := core.NewScorer(m)
	qs := workload.Complex(db, 25, 19)
	pl := optimizer.New(db)
	checked := &checkedScorer{t: t, m: m, sc: sc}
	pl.CostModel = checked
	first := fingerprints(t, pl, qs)
	sc.Reset()
	second := fingerprints(t, pl, qs)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("query %d: DACE-guided planning not deterministic across scorer reset: %s vs %s",
				i, first[i], second[i])
		}
	}
	if st := sc.Stats(); st.Hits == 0 || checked.checked == 0 {
		t.Fatalf("DP candidate traffic produced no memo hits (%d candidates checked): %+v", checked.checked, st)
	}
}

// pairedScorer hands each DP level to one scorer in one call, as the
// planner does, and the same candidates to a second scorer one call each.
type pairedScorer struct {
	t             *testing.T
	level, single *core.Scorer
}

func (p *pairedScorer) AppendScoreCandidates(buf []float64, cands []*plan.Node) []float64 {
	base := len(buf)
	buf = p.level.AppendScoreCandidates(buf, cands)
	for i, c := range cands {
		if one := p.single.Score(c); math.Float64bits(one) != math.Float64bits(buf[base+i]) {
			p.t.Fatalf("level of %d, candidate %d: %v scored with its level, %v alone", len(cands), i, buf[base+i], one)
		}
	}
	return buf
}

// TestDPLevelScoringCountsLikeOneAtATime: the planner prices a whole DP
// level in one call, and the Scorer runs the MLP head once per call, over
// all of the level's misses. On the candidate stream the DP really emits
// that changes no score and no counter — hits, misses, spliced and encoded
// rows are what one call per candidate produces.
func TestDPLevelScoringCountsLikeOneAtATime(t *testing.T) {
	db := schema.IMDB()
	m := daceModel(t, db)
	level, single := core.NewScorer(m), core.NewScorer(m)
	pl := optimizer.New(db)
	pl.CostModel = &pairedScorer{t: t, level: level, single: single}
	fingerprints(t, pl, workload.Complex(db, 25, 19))
	l, s := level.Stats(), single.Stats()
	if l != s {
		t.Fatalf("level calls counted %+v, single calls %+v", l, s)
	}
	if l.Misses == 0 || l.Hits == 0 || l.NodesCopied == 0 {
		t.Fatalf("degenerate DP traffic: %+v", l)
	}
}

// streamModel scores by sign·EstCost and digests every candidate it is
// asked about, in order, by subtree fingerprint.
type streamModel struct {
	sign         float64
	calls, cands int
	stream       []byte
}

func (s *streamModel) AppendScoreCandidates(buf []float64, cands []*plan.Node) []float64 {
	s.calls++
	s.cands += len(cands)
	for _, c := range cands {
		fp, _ := c.SubtreeFingerprint()
		s.stream = binary.LittleEndian.AppendUint64(s.stream, fp.Hi)
		s.stream = binary.LittleEndian.AppendUint64(s.stream, fp.Lo)
		buf = append(buf, s.sign*c.EstCost)
	}
	return buf
}

// TestDPScoresOneCallPerLevel: the DP makes one CostModel call per level —
// n−1 for an n-table connected query — and the calls, concatenated, ask
// about the candidates the cell-at-a-time DP asked about, in the same
// order. The digests and counts were recorded from that DP (one call per
// cell, 1,064 calls over this workload) under a model that keeps the
// classic choice and under one that inverts it, so a level that scored a
// cell's candidates against another cell's scores would change the plans
// and the later levels' streams.
func TestDPScoresOneCallPerLevel(t *testing.T) {
	for _, tc := range []struct {
		sign          float64
		cands         int
		stream, plans string
	}{
		{1, 11159, "882668f5fc0930c77cc9fc6794057fdb5f72b6b1ed6bb3224575fa3ed8de316d", "70f7ea0fde382cb8be711efd3fa75fb79791098426b0555e49e84e74c16d3d2a"},
		{-1, 11208, "a08c9c28bf009f4a9829842fde8be5fa30f542d6d846d37c39b96619c20b208e", "223438f809c98ae5b1c1cfa994be1fcb8da5c6ed5e099ffcbe6970e4a2da7e95"},
	} {
		m := &streamModel{sign: tc.sign}
		var plans []byte
		for _, db := range schema.Benchmark20()[:4] {
			pl := optimizer.New(db)
			pl.CostModel = m
			for i, q := range workload.Complex(db, 30, 11) {
				calls := m.calls
				p, err := pl.Plan(q)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := m.calls-calls, len(q.Tables)-1; got != want {
					t.Fatalf("%s query %d: %d tables planned in %d CostModel calls, want %d", db.Name, i, len(q.Tables), got, want)
				}
				fp := p.Fingerprint()
				plans = binary.LittleEndian.AppendUint64(plans, fp.Hi)
				plans = binary.LittleEndian.AppendUint64(plans, fp.Lo)
			}
		}
		stream, planned := fmt.Sprintf("%x", sha256.Sum256(m.stream)), fmt.Sprintf("%x", sha256.Sum256(plans))
		if m.cands != tc.cands || stream != tc.stream || planned != tc.plans {
			t.Fatalf("sign %v: %d candidates, stream %s, plans %s; the cell-at-a-time DP asked about %d, stream %s, plans %s",
				tc.sign, m.cands, stream, planned, tc.cands, tc.stream, tc.plans)
		}
	}
}

// TestDACEGuidedPlanningConcurrent shares one scorer across concurrent
// planners — the race-job scenario: the memo is the only shared mutable
// state and must serialize correctly without changing any plan.
func TestDACEGuidedPlanningConcurrent(t *testing.T) {
	db := schema.IMDB()
	sc := core.NewScorer(daceModel(t, db))
	qs := workload.Complex(db, 15, 23)
	ref := optimizer.New(db)
	ref.CostModel = sc
	want := fingerprints(t, ref, qs)
	const workers = 4
	errs := make(chan error, workers)
	results := make([][]plan.Fingerprint, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			pl := optimizer.New(db)
			pl.CostModel = sc
			fps := make([]plan.Fingerprint, len(qs))
			for i, q := range qs {
				p, err := pl.Plan(q)
				if err != nil {
					errs <- err
					return
				}
				fps[i] = p.Fingerprint()
			}
			results[w] = fps
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < workers; w++ {
		for i := range qs {
			if results[w][i] != want[i] {
				t.Fatalf("worker %d query %d: %s != %s", w, i, results[w][i], want[i])
			}
		}
	}
}
