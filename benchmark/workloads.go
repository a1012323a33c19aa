package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"

	"dace/internal/core"
	"dace/internal/metrics"
	"dace/internal/optimizer"
	"dace/internal/plan"
	"dace/internal/serve"
)

// workloadDef is one closed-loop workload. Names are fixed: later issues
// refer to them. BENCHMARK.json and README.md say why each one exists.
type workloadDef struct {
	name    string
	clients int
	// prefill warms the caches the workload depends on; part of setup.
	prefill func(fx *fixture) error
	// verify sends the hold-out plans through the workload's own entry
	// point, requires bitwise equality with the in-process model, and
	// returns the root q-errors it saw.
	verify func(fx *fixture) ([]float64, error)
	// newClient builds client id (0-based) for the given seed.
	newClient func(fx *fixture, id int, seed int64) (client, error)
}

var workloads = []*workloadDef{
	{
		name:    "serve_hot",
		clients: 2, prefill: prefillHot, verify: verifyHot, newClient: newHotClient,
	},
	{
		name:    "serve_miss",
		clients: 2, prefill: prefillMiss, verify: verifyMiss, newClient: newMissClient,
	},
	{
		name:    "serve_batch",
		clients: 1, prefill: prefillBatch, verify: verifyBatch, newClient: newBatchClient,
	},
	{
		name:    "optimizer_dp",
		clients: 2, prefill: prefillNone, verify: verifyDP, newClient: newDPClient,
	},
	{
		name:    "train_adapt",
		clients: 1, prefill: prefillNone, verify: verifyAdapt, newClient: newAdaptClient,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func prefillNone(*fixture) error { return nil }

// samePreds reports bitwise equality of a response document with the
// model's DFS predictions.
func samePreds(doc *serve.Prediction, want []float64) bool {
	if len(doc.SubPlans) != len(want) || len(want) == 0 {
		return false
	}
	if math.Float64bits(doc.RootMS) != math.Float64bits(want[0]) {
		return false
	}
	for i, sp := range doc.SubPlans {
		if math.Float64bits(sp.PredictedMS) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// verifyServed checks fx.sz.verify hold-out plans through send, which returns
// the /predict response document for hold-out plan i.
func verifyServed(fx *fixture, send func(i int) ([]byte, error)) ([]float64, error) {
	qerrs := make([]float64, 0, fx.sz.verify)
	var want []float64
	for i := 0; i < fx.sz.verify; i++ {
		resp, err := send(i)
		if err != nil {
			return nil, fmt.Errorf("verify plan %d: %w", i, err)
		}
		var doc serve.Prediction
		if err := json.Unmarshal(resp, &doc); err != nil {
			return nil, fmt.Errorf("verify plan %d: %w", i, err)
		}
		want = fx.model.AppendPredictSubPlans(want[:0], fx.holdout[i])
		if !samePreds(&doc, want) {
			return nil, fmt.Errorf("verify plan %d: served prediction differs from Model.AppendPredictSubPlans", i)
		}
		qerrs = append(qerrs, metrics.QError(doc.RootMS, fx.holdout[i].Root.ActualMS))
	}
	return qerrs, nil
}

// ---- serve_hot ----

// hotExpected holds the response bytes of the hot set, recorded by the
// prefill pass and verified bitwise by verifyHot before anything is timed.
func prefillHot(fx *fixture) error {
	c := newInproc(fx.handler)
	fx.hotExpected = make([][]byte, fx.sz.hot)
	for i := 0; i < fx.sz.hot; i++ {
		status, resp := c.do(http.MethodPost, "/predict", ctJSON, fx.templates[i].body)
		if status != http.StatusOK {
			return fmt.Errorf("benchmark: hot prefill %d answered %d: %s", i, status, resp)
		}
		fx.hotExpected[i] = bytes.Clone(resp)
	}
	return nil
}

func verifyHot(fx *fixture) ([]float64, error) {
	c := newInproc(fx.handler)
	return verifyServed(fx, func(i int) ([]byte, error) {
		status, resp := c.do(http.MethodPost, "/predict", ctJSON, fx.templates[i].body)
		if status != http.StatusOK {
			return nil, fmt.Errorf("status %d", status)
		}
		if !bytes.Equal(resp, fx.hotExpected[i]) {
			return nil, fmt.Errorf("cached response differs from the first response")
		}
		return resp, nil
	})
}

type hotClient struct {
	fx     *fixture
	c      *inproc
	order  []int
	pos    int
	cur    int
	status int
	resp   []byte
}

func newHotClient(fx *fixture, id int, seed int64) (client, error) {
	rng := rand.New(rand.NewSource(seed*1000 + int64(id)))
	return &hotClient{fx: fx, c: newInproc(fx.handler), order: rng.Perm(fx.sz.hot)}, nil
}

func (h *hotClient) prepare() {
	h.cur = h.order[h.pos]
	if h.pos++; h.pos == len(h.order) {
		h.pos = 0
	}
}
func (h *hotClient) do() {
	h.status, h.resp = h.c.do(http.MethodPost, "/predict", ctJSON, h.fx.templates[h.cur].body)
}
func (h *hotClient) check() bool {
	return h.status == http.StatusOK && bytes.Equal(h.resp, h.fx.hotExpected[h.cur])
}
func (h *hotClient) close() {}

// ---- serve_miss ----

// fillCount over-fills a cache: keys hash to 16 shards of cacheSize/16 each,
// and 1.25× the capacity leaves every shard full with overwhelming
// probability.
func (fx *fixture) fillCount() int { return fx.sz.cacheSize + fx.sz.cacheSize/4 }

// smallest returns the index of the hold-out plan with the fewest nodes;
// cache fills use it so that setup pays for inserts, not for forwards.
func (fx *fixture) smallest() int {
	best, bestN := 0, math.MaxInt
	for i, p := range fx.holdout {
		if n := p.NodeCount(); n < bestN {
			best, bestN = i, n
		}
	}
	return best
}

// prefillMiss fills the body cache and the plan cache to capacity through
// /predict, so that from the first timed operation every miss also evicts.
func prefillMiss(fx *fixture) error {
	const fillers = 64 // concurrent callers, so the micro-batcher fills batches instead of waiting out MaxWait per request
	small := fx.templates[fx.smallest()]
	var wg sync.WaitGroup
	errs := make([]error, fillers)
	for g := 0; g < fillers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, t, u := newInproc(fx.handler), small.clone(), newUniq(fillerPartition+g, 0)
			for i := 0; i < fx.fillCount()/fillers; i++ {
				if status, resp := c.do(http.MethodPost, "/predict", ctJSON, t.patch(u.draw())); status != http.StatusOK {
					errs[g] = fmt.Errorf("benchmark: cache fill answered %d: %s", status, resp)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Perturbation-counter partitions: measured clients use 0..15, cache fills
// the 64 from fillerPartition, the traced run's replays the ones from
// replayPartition.
const (
	fillerPartition = 16
	replayPartition = 96
)

func verifyMiss(fx *fixture) ([]float64, error) {
	conn, err := dialSock(fx.addr)
	if err != nil {
		return nil, err
	}
	defer conn.close()
	return verifyServed(fx, func(i int) ([]byte, error) {
		status, resp, err := conn.do(http.MethodPost, "/predict", ctJSON, fx.templates[i].body)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("status %d", status)
		}
		return resp, nil
	})
}

// parseEvery is how often a miss response is parsed and compared bitwise
// with the in-process model during the timed run; every response has its
// status checked.
const parseEvery = 64

type missClient struct {
	fx        *fixture
	conn      *sockConn
	templates []jsonTemplate
	rng       *rand.Rand
	u         *uniq
	body      []byte
	status    int
	resp      []byte
	err       error
	n         int
	dec       plan.Decoder
	want      []float64
}

func newMissClient(fx *fixture, id int, seed int64) (client, error) {
	conn, err := dialSock(fx.addr)
	if err != nil {
		return nil, err
	}
	m := &missClient{fx: fx, conn: conn, rng: rand.New(rand.NewSource(seed*1000 + int64(id))), u: newUniq(id, seed)}
	for _, t := range fx.templates {
		m.templates = append(m.templates, t.clone())
	}
	return m, nil
}

func (m *missClient) prepare() {
	m.body = m.templates[m.rng.Intn(len(m.templates))].patch(m.u.draw())
}
func (m *missClient) do() {
	m.status, m.resp, m.err = m.conn.do(http.MethodPost, "/predict", ctJSON, m.body)
}
func (m *missClient) check() bool {
	if m.err != nil || m.status != http.StatusOK || len(m.resp) == 0 {
		return false
	}
	if m.n++; m.n%parseEvery != 0 {
		return true
	}
	var doc serve.Prediction
	if json.Unmarshal(m.resp, &doc) != nil {
		return false
	}
	f, err := m.dec.Decode(m.body)
	if err != nil {
		return false
	}
	m.want = m.fx.model.AppendPredictSubPlansFlat(m.want[:0], f)
	return samePreds(&doc, m.want)
}
func (m *missClient) close() { m.conn.close() }

// ---- serve_batch ----

// prefillBatch fills the plan cache to capacity through /predict/batch.
func prefillBatch(fx *fixture) error {
	const per = 256
	small := fx.holdout[fx.smallest()]
	plans := make([]*plan.Plan, per)
	for i := range plans {
		plans[i] = small
	}
	b, err := newBinBatch(plans)
	if err != nil {
		return err
	}
	c, u := newInproc(fx.handler), newUniq(fillerPartition, 0)
	for n := 0; n < fx.fillCount(); n += per {
		if status, resp := c.do(http.MethodPost, "/predict/batch", ctBinary, b.patch(u)); status != http.StatusOK {
			return fmt.Errorf("benchmark: cache fill answered %d: %s", status, resp)
		}
	}
	return nil
}

func verifyBatch(fx *fixture) ([]float64, error) {
	conn, err := dialSock(fx.addr)
	if err != nil {
		return nil, err
	}
	defer conn.close()
	var docs []json.RawMessage
	return verifyServed(fx, func(i int) ([]byte, error) {
		if i%fx.sz.batch == 0 {
			b, err := newBinBatch(fx.holdout[i : i+fx.sz.batch])
			if err != nil {
				return nil, err
			}
			status, resp, err := conn.do(http.MethodPost, "/predict/batch", ctBinary, b.body)
			if err != nil {
				return nil, err
			}
			if status != http.StatusOK {
				return nil, fmt.Errorf("status %d", status)
			}
			docs = docs[:0]
			if err := json.Unmarshal(resp, &docs); err != nil {
				return nil, err
			}
			if len(docs) != fx.sz.batch {
				return nil, fmt.Errorf("batch answered %d documents, want %d", len(docs), fx.sz.batch)
			}
		}
		return docs[i%fx.sz.batch], nil
	})
}

type batchClient struct {
	fx     *fixture
	conn   *sockConn
	b      binBatch
	u      *uniq
	body   []byte
	status int
	resp   []byte
	err    error
	n      int
	dec    plan.Decoder
	want   []float64
}

func newBatchClient(fx *fixture, id int, seed int64) (client, error) {
	conn, err := dialSock(fx.addr)
	if err != nil {
		return nil, err
	}
	b := fx.batch
	b.body = bytes.Clone(b.body)
	return &batchClient{fx: fx, conn: conn, b: b, u: newUniq(id, seed)}, nil
}

func (b *batchClient) prepare() { b.body = b.b.patch(b.u) }
func (b *batchClient) do() {
	b.status, b.resp, b.err = b.conn.do(http.MethodPost, "/predict/batch", ctBinary, b.body)
}
func (b *batchClient) check() bool {
	if b.err != nil || b.status != http.StatusOK || len(b.resp) == 0 {
		return false
	}
	if b.n++; b.n%parseEvery != 0 {
		return true
	}
	var docs []serve.Prediction
	if json.Unmarshal(b.resp, &docs) != nil || len(docs) != len(b.b.offs) {
		return false
	}
	bb, err := plan.NewBinaryBatch(b.body)
	if err != nil {
		return false
	}
	for i := range docs {
		f, err := bb.Next(&b.dec)
		if err != nil {
			return false
		}
		b.want = b.fx.model.AppendPredictSubPlansFlat(b.want[:0], f)
		if !samePreds(&docs[i], b.want) {
			return false
		}
	}
	return true
}
func (b *batchClient) close() { b.conn.close() }

// ---- optimizer_dp ----

// verifyDP scores the hold-out roots through a Scorer (the entry point the
// planner uses) and records the plan each query must produce.
func verifyDP(fx *fixture) ([]float64, error) {
	sc := core.NewScorer(fx.model)
	qerrs := make([]float64, 0, fx.sz.verify)
	var want []float64
	for i := 0; i < fx.sz.verify; i++ {
		p := fx.holdout[i]
		got := sc.Score(p.Root)
		want = fx.model.AppendPredictSubPlans(want[:0], p)
		if math.Float64bits(got) != math.Float64bits(want[0]) {
			return nil, fmt.Errorf("verify plan %d: Scorer score differs from Model.AppendPredictSubPlans", i)
		}
		qerrs = append(qerrs, metrics.QError(got, p.Root.ActualMS))
	}
	pl := optimizer.New(fx.imdb)
	pl.CostModel = core.NewScorer(fx.model)
	fx.dpExpected = make([]plan.Fingerprint, len(fx.queries))
	for i, q := range fx.queries {
		p, err := pl.Plan(q)
		if err != nil {
			return nil, fmt.Errorf("verify query %d: %w", i, err)
		}
		fx.dpExpected[i] = p.Fingerprint()
	}
	return qerrs, nil
}

type dpClient struct {
	fx    *fixture
	pl    *optimizer.Planner
	sc    *core.Scorer
	order []int
	pos   int
	cur   int
	got   *plan.Plan
	err   error
}

func newDPClient(fx *fixture, id int, seed int64) (client, error) {
	rng := rand.New(rand.NewSource(seed*1000 + int64(id)))
	d := &dpClient{fx: fx, pl: optimizer.New(fx.imdb), sc: core.NewScorer(fx.model), order: rng.Perm(len(fx.queries))}
	d.pl.CostModel = d.sc
	return d, nil
}

func (d *dpClient) prepare() {
	d.cur = d.order[d.pos]
}
func (d *dpClient) do() {
	// The memo is kept within a pass and dropped between passes, as a
	// planner that resets per workload batch would; the reset is part of
	// the use and is timed with the first query of the pass.
	if d.pos == 0 {
		d.sc.Reset()
	}
	d.got, d.err = d.pl.Plan(d.fx.queries[d.cur])
}
func (d *dpClient) check() bool {
	if d.pos++; d.pos == len(d.order) {
		d.pos = 0
	}
	return d.err == nil && d.got.Fingerprint() == d.fx.dpExpected[d.cur]
}
func (d *dpClient) close() {}

// ---- train_adapt ----

// adaptOp is the whole train_adapt operation; it returns the adapted model
// and its predictions on the first fx.sz.adaptPredict M2 hold-outs.
func adaptOp(fx *fixture, preds []float64) (*core.Model, []float64) {
	cfg := fx.cfg
	cfg.Epochs, cfg.Workers = 1, 0
	core.Train(fx.train[:fx.sz.trainSlice], cfg)

	m := fx.model.Clone()
	m.Cfg.Workers = 0
	m.FineTuneLoRA(fx.m2[:fx.sz.fineTune], 2e-3, 2)
	for _, p := range fx.m2[fx.sz.fineTune : fx.sz.fineTune+fx.sz.adaptPredict] {
		preds = append(preds, m.Predict(p))
	}
	return m, preds
}

// verifyAdapt runs the operation once, checks Predict against the full
// forward on the adapted model, and reports q-error on the M2 hold-out.
func verifyAdapt(fx *fixture) ([]float64, error) {
	m, preds := adaptOp(fx, nil)
	fx.adaptExpected = preds
	hold := fx.m2[fx.sz.fineTune:]
	qerrs := make([]float64, 0, len(hold))
	var want []float64
	for i, p := range hold {
		got := m.Predict(p)
		want = m.AppendPredictSubPlans(want[:0], p)
		if math.Float64bits(got) != math.Float64bits(want[0]) {
			return nil, fmt.Errorf("verify M2 plan %d: adapted Predict differs from AppendPredictSubPlans", i)
		}
		qerrs = append(qerrs, metrics.QError(got, p.Root.ActualMS))
	}
	return qerrs, nil
}

type adaptClient struct {
	fx    *fixture
	preds []float64
}

func newAdaptClient(fx *fixture, _ int, _ int64) (client, error) {
	return &adaptClient{fx: fx}, nil
}

func (a *adaptClient) prepare() {}
func (a *adaptClient) do()      { _, a.preds = adaptOp(a.fx, a.preds[:0]) }
func (a *adaptClient) check() bool {
	if len(a.preds) != len(a.fx.adaptExpected) {
		return false
	}
	for i, v := range a.preds {
		if math.Float64bits(v) != math.Float64bits(a.fx.adaptExpected[i]) {
			return false
		}
	}
	return true
}
func (a *adaptClient) close() {}
