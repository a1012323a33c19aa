// Package baselines implements the cost estimators the paper compares DACE
// against, faithful in kind to the originals:
//
//   - PostgreSQL: the optimizer's own cost, linearly calibrated to
//     milliseconds (the paper's treatment of the DBMS baseline).
//   - MSCN (Kipf et al.): deep sets over query-level table/join/predicate
//     features — a within-database model that learns data characteristics.
//   - QPPNet (Marcus & Papaemmanouil): per-operator-type neural units
//     composed along the plan tree, trained on every sub-plan equally
//     (the information-redundancy foil), with sequential bottom-up
//     inference.
//   - TPool (Sun & Li): tree-pooling plan model with predicate features and
//     multi-task (cardinality + latency) heads.
//   - QueryFormer (Zhao et al.): a multi-layer tree transformer with height
//     embeddings, a learnable tree-distance attention bias, and a super
//     node readout.
//   - Zero-Shot (Hilprecht & Binnig): per-operator-type MLPs with bottom-up
//     message passing over transferable features — the across-database
//     baseline.
//
// All baselines train on the same labeled samples and share the Estimator
// interface, so the experiment harness treats them uniformly.
package baselines

import (
	"math"
	"math/rand"

	"dace/internal/dataset"
	"dace/internal/nn"
	"dace/internal/schema"
)

func newRng(seed int) *rand.Rand { return rand.New(rand.NewSource(int64(seed))) }

// Estimator is the common contract: train on labeled samples, predict the
// root latency (ms) of a labeled or unlabeled sample's plan.
type Estimator interface {
	Name() string
	Train(samples []dataset.Sample) error
	Predict(s dataset.Sample) float64
	// SizeMB reports the float32-equivalent parameter size (Table II).
	SizeMB() float64
}

// Env gives estimators catalog access (table sizes and schema features).
// DACE pointedly needs no Env; the data-characteristic baselines do.
type Env struct {
	DBs map[string]*schema.Database
}

// NewEnv indexes databases by name.
func NewEnv(dbs ...*schema.Database) *Env {
	e := &Env{DBs: map[string]*schema.Database{}}
	for _, db := range dbs {
		e.DBs[db.Name] = db
	}
	return e
}

// TableRows returns the row count of a table, or 1 when unknown (unseen
// database at test time — exactly the situation WDM features degrade in).
func (e *Env) TableRows(db, table string) float64 {
	d, ok := e.DBs[db]
	if !ok {
		return 1
	}
	t := d.Table(table)
	if t == nil {
		return 1
	}
	return float64(t.Rows)
}

// hashBucket maps a string into [0, buckets) deterministically — the
// fixed-vocabulary trick the learned baselines use for tables, columns and
// joins. Collisions across databases are intended: they are why
// data-characteristic features do not transfer.
func hashBucket(buckets int, parts ...string) int {
	return int(schema.Hash64(parts...) % uint64(buckets))
}

// PostgreSQL is the DBMS baseline: est_cost calibrated to milliseconds with
// a log-log linear model fit on the training workload, as the paper does
// ("we processed it with a linear model as the execution time predicted by
// PostgreSQL").
type PostgreSQL struct {
	A, B float64 // log(ms) = A + B·log(cost)
}

// NewPostgreSQL returns an unfitted PostgreSQL baseline.
func NewPostgreSQL() *PostgreSQL { return &PostgreSQL{B: 1} }

// Name implements Estimator.
func (p *PostgreSQL) Name() string { return "PostgreSQL" }

// SizeMB implements Estimator; the DBMS baseline has no learned parameters.
func (p *PostgreSQL) SizeMB() float64 { return 0 }

// Train fits the two calibration coefficients by least squares in log space.
func (p *PostgreSQL) Train(samples []dataset.Sample) error {
	var sx, sy, sxx, sxy, n float64
	for _, s := range samples {
		x := math.Log(math.Max(s.Plan.Root.EstCost, 1e-9))
		y := math.Log(math.Max(s.Plan.Root.ActualMS, 1e-9))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	den := n*sxx - sx*sx
	if den == 0 || n == 0 {
		p.A, p.B = 0, 1
		return nil
	}
	p.B = (n*sxy - sx*sy) / den
	p.A = (sy - p.B*sx) / n
	return nil
}

// Predict implements Estimator.
func (p *PostgreSQL) Predict(s dataset.Sample) float64 {
	return math.Exp(p.A + p.B*math.Log(math.Max(s.Plan.Root.EstCost, 1e-9)))
}

// trainLoop is the shared mini-batch Adam loop: each sample contributes a
// scalar loss node built by lossFn on a per-worker tape. Minibatches fan
// out across a worker pool (workers <= 0 selects GOMAXPROCS), and the
// gradient is formed sample by sample in minibatch order (nn.GradPool), so
// the trained weights are bitwise identical for any worker count. lossFn is
// called concurrently and must not mutate shared state.
func trainLoop(params []*nn.Param, n int, lossFn func(t *nn.Tape, i int) *nn.Node, lr float64, epochs, batch, seed, workers int) {
	opt := nn.NewAdam(params, lr)
	defer opt.Release()
	pool := nn.NewGradPool(params, workers)
	defer pool.Release()
	rng := newRng(seed)
	order := rng.Perm(n)
	if batch <= 0 {
		batch = 16
	}
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for b := 0; b < len(order); b += batch {
			end := b + batch
			if end > len(order) {
				end = len(order)
			}
			idxs := order[b:end]
			pool.Step(opt, len(idxs), func(t *nn.Tape, i int) *nn.Node {
				return lossFn(t, idxs[i])
			})
		}
	}
}
