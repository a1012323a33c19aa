package baselines

import (
	"math"
	"testing"

	"dace/internal/dataset"
	"dace/internal/executor"
	"dace/internal/metrics"
	"dace/internal/nn"
	"dace/internal/schema"
)

// testEnv builds samples on IMDB plus the shared Env.
func testEnv(t *testing.T, n int) (*Env, []dataset.Sample) {
	t.Helper()
	db := schema.IMDB()
	samples, err := dataset.ComplexWorkload(db, n, executor.M1())
	if err != nil {
		t.Fatal(err)
	}
	return NewEnv(db), samples
}

func medianQ(e Estimator, samples []dataset.Sample) float64 {
	var qs []float64
	for _, s := range samples {
		qs = append(qs, metrics.QError(e.Predict(s), s.Plan.Root.ActualMS))
	}
	return metrics.Summarize(qs).Median
}

// fastEpochs shrinks training for unit tests.
func fast(e Estimator) Estimator {
	switch m := e.(type) {
	case *MSCN:
		m.Epochs = 10
	case *QPPNet:
		m.Epochs = 10
	case *TPool:
		m.Epochs = 10
	case *QueryFormer:
		m.Epochs = 6
	case *ZeroShot:
		m.Epochs = 10
	}
	return e
}

func TestAllEstimatorsLearnWithinDatabase(t *testing.T) {
	env, samples := testEnv(t, 140)
	train, test := samples[:110], samples[110:]
	for _, e := range []Estimator{
		NewPostgreSQL(),
		fast(NewMSCN(env)),
		fast(NewQPPNet(env)),
		fast(NewTPool(env)),
		fast(NewQueryFormer(env)),
		fast(NewZeroShot(env)),
	} {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			if err := e.Train(train); err != nil {
				t.Fatal(err)
			}
			med := medianQ(e, test)
			if math.IsNaN(med) || med > 6 {
				t.Fatalf("%s median q-error %v; did not learn", e.Name(), med)
			}
			for _, s := range test[:3] {
				p := e.Predict(s)
				if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
					t.Fatalf("%s produced invalid prediction %v", e.Name(), p)
				}
			}
		})
	}
}

func TestPostgreSQLCalibration(t *testing.T) {
	_, samples := testEnv(t, 100)
	pg := NewPostgreSQL()
	if err := pg.Train(samples[:80]); err != nil {
		t.Fatal(err)
	}
	if pg.B <= 0 {
		t.Fatalf("calibration slope %v should be positive (cost grows with time)", pg.B)
	}
	med := medianQ(pg, samples[80:])
	if med > 10 {
		t.Fatalf("PostgreSQL baseline median q-error %v implausibly bad", med)
	}
	if pg.SizeMB() != 0 {
		t.Fatal("PostgreSQL has no learned parameters")
	}
}

func TestPostgreSQLDegenerateTraining(t *testing.T) {
	pg := NewPostgreSQL()
	if err := pg.Train(nil); err != nil {
		t.Fatal(err)
	}
	if pg.B != 1 || pg.A != 0 {
		t.Fatal("degenerate fit should fall back to identity calibration")
	}
}

func TestModelSizeOrdering(t *testing.T) {
	// Table II's qualitative story: DACE (~0.1 MB, tested in core) is far
	// smaller than every learned baseline, and QueryFormer is the largest.
	env := NewEnv(schema.IMDB())
	sizes := map[string]float64{}
	for _, e := range []Estimator{
		NewMSCN(env), NewQPPNet(env), NewTPool(env), NewQueryFormer(env), NewZeroShot(env),
	} {
		sizes[e.Name()] = e.SizeMB()
		if sizes[e.Name()] <= 0 {
			t.Fatalf("%s reports zero size", e.Name())
		}
	}
	for name, mb := range sizes {
		if name != "QueryFormer" && sizes["QueryFormer"] <= mb {
			t.Fatalf("QueryFormer (%.3f MB) must be the largest; %s is %.3f MB", sizes["QueryFormer"], name, mb)
		}
		if mb < 0.2 {
			t.Fatalf("%s is %.3f MB; baselines must dwarf DACE's ~0.12 MB", name, mb)
		}
	}
}

func TestMSCNFailsAcrossDatabase(t *testing.T) {
	// The paper's core claim about WDMs: vocabulary-bound data
	// characteristics do not transfer. Train MSCN on one database, test on
	// another: it must degrade hard relative to its within-database accuracy.
	imdb := schema.IMDB()
	air := schema.BenchmarkDB("airline")
	env := NewEnv(imdb, air)
	trainSamples, err := dataset.ComplexWorkload(imdb, 120, executor.M1())
	if err != nil {
		t.Fatal(err)
	}
	crossSamples, err := dataset.ComplexWorkload(air, 60, executor.M1())
	if err != nil {
		t.Fatal(err)
	}
	m := fast(NewMSCN(env)).(*MSCN)
	if err := m.Train(trainSamples[:100]); err != nil {
		t.Fatal(err)
	}
	within := medianQ(m, trainSamples[100:])
	cross := medianQ(m, crossSamples)
	if cross < within*1.15 {
		t.Fatalf("MSCN transfers too well (within %v, cross %v); data characteristics should not", within, cross)
	}
}

func TestQPPNetPredictsEverySubPlanDuringTraining(t *testing.T) {
	env, samples := testEnv(t, 40)
	q := fast(NewQPPNet(env)).(*QPPNet)
	if err := q.Train(samples[:30]); err != nil {
		t.Fatal(err)
	}
	// Forward on a fresh plan: the per-node latency vector must cover DFS.
	s := samples[35]
	enc := q.enc.Encode(s.Plan)
	tape := nn.NewTape()
	pred := q.forward(tape, enc, s.Plan)
	if pred.Value.Rows != s.Plan.NodeCount() {
		t.Fatalf("QPPNet predicted %d sub-plans for %d nodes", pred.Value.Rows, s.Plan.NodeCount())
	}
}

// PredictCardinality returns the multi-task head's cardinality estimate:
// the tests' view of the auxiliary head TPool trains beside the cost head.
func (tp *TPool) PredictCardinality(s dataset.Sample) float64 {
	t := nn.GetTape()
	feats := tp.nodeFeatures(tp.enc.Encode(s.Plan), s.Plan)
	_, card := tp.forward(t, feats, s.Plan)
	v := card.Value.At(0, 0)
	nn.PutTape(t)
	return math.Exp(tp.card.Inverse(v))
}

func TestTPoolMultiTaskCardinality(t *testing.T) {
	env, samples := testEnv(t, 80)
	tp := fast(NewTPool(env)).(*TPool)
	if err := tp.Train(samples[:60]); err != nil {
		t.Fatal(err)
	}
	var qs []float64
	for _, s := range samples[60:] {
		qs = append(qs, metrics.QError(tp.PredictCardinality(s), s.Plan.Root.ActualRows))
	}
	med := metrics.Summarize(qs).Median
	if math.IsNaN(med) || med > 500 {
		t.Fatalf("TPool cardinality head useless: median q-error %v", med)
	}
}

func TestQueryFormerStructure(t *testing.T) {
	env, samples := testEnv(t, 10)
	qf := NewQueryFormer(env)
	for _, s := range samples {
		st := qf.structure(s.Plan)
		n := s.Plan.NodeCount() + 1
		if st.mask.Rows != n || st.mask.Cols != n {
			t.Fatalf("mask %d×%d, want %d×%d", st.mask.Rows, st.mask.Cols, n, n)
		}
		// Super node sees and is seen by all.
		for j := 0; j < n; j++ {
			if st.mask.At(0, j) != 1 || st.mask.At(j, 0) != 1 {
				t.Fatal("super node not fully connected")
			}
		}
		// Distance-0 indicator covers exactly the diagonal (self pairs).
		if st.indicators[0] == nil {
			t.Fatal("no distance-0 indicator")
		}
		for i := 1; i < n; i++ {
			if st.indicators[0].At(i, i) != 1 {
				t.Fatal("self distance missing")
			}
		}
	}
}

func TestEnvUnknownLookups(t *testing.T) {
	env := NewEnv(schema.IMDB())
	if env.TableRows("ghostdb", "t") != 1 {
		t.Fatal("unknown database should degrade to 1 row")
	}
	if env.TableRows("imdb", "ghost") != 1 {
		t.Fatal("unknown table should degrade to 1 row")
	}
	if env.TableRows("imdb", "title") <= 1 {
		t.Fatal("known table lookup broken")
	}
}

func TestHashBucketStable(t *testing.T) {
	a := hashBucket(24, "imdb", "title")
	if a != hashBucket(24, "imdb", "title") {
		t.Fatal("hashBucket not deterministic")
	}
	if a < 0 || a >= 24 {
		t.Fatalf("bucket %d out of range", a)
	}
}

// TestTrainLoopWorkerCountInvariance asserts the shared minibatch loop is
// deterministic across worker counts: the gradient is formed sample by
// sample in fixed order, so a fixed seed yields bitwise-identical weights
// whether training used 1 worker or 4.
func TestTrainLoopWorkerCountInvariance(t *testing.T) {
	env, samples := testEnv(t, 60)
	trainMSCN := func(workers int) []*nn.Param {
		m := NewMSCN(env)
		m.Epochs = 3
		m.Workers = workers
		if err := m.Train(samples); err != nil {
			t.Fatal(err)
		}
		return m.params()
	}
	p1, p4 := trainMSCN(1), trainMSCN(4)
	for i := range p1 {
		for j := range p1[i].Value.Data {
			if p1[i].Value.Data[j] != p4[i].Value.Data[j] {
				t.Fatalf("param %s[%d]: %v (1 worker) vs %v (4 workers)",
					p1[i].Name, j, p1[i].Value.Data[j], p4[i].Value.Data[j])
			}
		}
	}
}
