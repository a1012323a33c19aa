package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"dace/internal/core"
	"dace/internal/featurize"
	"dace/internal/gateway"
	"dace/internal/nn"
	"dace/internal/optimizer"
	"dace/internal/plan"
	"dace/internal/servecache"
)

// The layer replay of a traced run. Whatever workload ran, the same requests
// are then replayed in process: first through Handler().ServeHTTP at the
// concurrency the matching workload uses (the handler spans), then — alone,
// on one goroutine — stage by stage through each layer's public functions
// (the stage spans, recorded as children of the request's handler span).
// Library layers no request crosses are timed as root spans of their own.
// A layer's figure is the median per-call self time of its spans.

// reqRec remembers enough of a replayed request to rebuild its body.
type reqRec struct {
	span int32  // the request's handler span
	tmpl int    // template (hot and miss requests)
	k    uint64 // first perturbation draw (miss and batch requests)
}

// replayer holds the replay's scratch state.
type replayer struct {
	fx *fixture
	tr *trace

	bodyProbe *servecache.Cache[[]byte]
	planProbe *servecache.Cache[[]float64]

	dec     plan.Decoder
	decs    []plan.Decoder // one per plan of a batch, so all stay decoded at once
	scratch featurize.Scratch
	preds   []float64
	outs    [][]float64
}

func replayLayers(fx *fixture, tr *trace, set func(string, float64, string)) error {
	r := &replayer{
		fx: fx, tr: tr,
		bodyProbe: servecache.New[[]byte](fx.sz.cacheSize, 0),
		planProbe: servecache.New[[]float64](fx.sz.cacheSize, 0),
		decs:      make([]plan.Decoder, fx.sz.batch),
	}
	// Full caches, as on the server: a probe of an absent key walks a full
	// map and every insert evicts.
	for i := 0; i < fx.fillCount(); i++ {
		k := servecache.Key{Hi: uint64(i) * 0x9e3779b97f4a7c15, Lo: uint64(i)}
		r.bodyProbe.Put(k, nil)
		r.planProbe.Put(k, nil)
	}

	// Outside serve_hot the hot set has not been sent yet; send it once so
	// that every replayed hot request is a hit, as its span name says.
	cl := newInproc(fx.handler)
	for i := 0; i < fx.sz.hot; i++ {
		if status, resp := cl.do(http.MethodPost, "/predict", ctJSON, fx.templates[i].body); status != http.StatusOK {
			return fmt.Errorf("hot set answered %d: %s", status, resp)
		}
	}

	n := fx.sz.replay
	hot, allocs, err := r.handlerPhase("serve.handler_hot", "/predict", ctJSON, 2, n, r.hotRequest)
	if err != nil {
		return err
	}
	set("serve.allocs_per_op_hot", allocs, "count")
	miss, allocs, err := r.handlerPhase("serve.handler_miss", "/predict", ctJSON, 2, n/2, r.missRequest)
	if err != nil {
		return err
	}
	set("serve.allocs_per_op_miss", allocs, "count")
	batch, allocs, err := r.handlerPhase("serve.handler_batch", "/predict/batch", ctBinary, 1, n/10, r.batchRequest)
	if err != nil {
		return err
	}
	set("serve.allocs_per_op_batch", allocs, "count")

	if err := r.hotStages(hot); err != nil {
		return err
	}
	if err := r.missStages(miss); err != nil {
		return err
	}
	if err := r.batchStages(batch); err != nil {
		return err
	}
	if err := r.libraryStages(); err != nil {
		return err
	}
	cands, scorerStats, err := r.optimizerStages()
	if err != nil {
		return err
	}
	if err := r.trainStages(); err != nil {
		return err
	}
	flops := r.kernelStages()
	if err := r.socketStages(); err != nil {
		return err
	}

	self, total := layerTimes(tr.spans)
	for _, m := range []struct {
		metric, span string
		from         map[string][]float64
		div          float64
		unit         string
	}{
		{"servecache.keyof_us", "servecache.keyof", self, 1e3, "us"},
		{"servecache.get_hit_ns", "servecache.get_hit", self, 1, "ns"},
		{"servecache.get_miss_ns", "servecache.get_miss", self, 1, "ns"},
		{"servecache.put_evict_ns", "servecache.put_evict", self, 1, "ns"},
		{"plan.decode_json_us", "plan.decode_json", self, 1e3, "us"},
		{"plan.decode_binary_us", "plan.decode_binary", self, 1e3, "us"},
		{"plan.tree_us", "plan.tree", self, 1e3, "us"},
		{"plan.subtree_fingerprints_us", "plan.subtree_fingerprints", self, 1e3, "us"},
		{"featurize.encode_flat_us", "featurize.encode_flat", self, 1e3, "us"},
		{"featurize.encode_tree_us", "featurize.encode_tree", self, 1e3, "us"},
		{"featurize.node_row_ns", "featurize.node_row", self, 1, "ns"},
		{"core.predict_root_us", "core.predict_root", self, 1e3, "us"},
		{"core.subplans_flat_us", "core.subplans_flat", self, 1e3, "us"},
		{"core.subplans_tree_us", "core.subplans_tree", self, 1e3, "us"},
		{"core.subplans_batch_us_per_plan", "core.subplans_batch", self, 1e3, "us"},
		{"core.scorer_score_us", "core.scorer_score", self, 1e3, "us"},
		{"optimizer.dp_classic_us", "optimizer.dp_classic", self, 1e3, "us"},
		{"optimizer.dp_dace_self_us", "optimizer.dp_dace", self, 1e3, "us"},
		{"core.clone_us", "core.clone", self, 1e3, "us"},
		{"core.model_load_ms", "core.model_load", self, 1e6, "ms"},
		{"nn.masked_softmax_us", "nn.masked_softmax", self, 1e3, "us"},
		{"nn.matmul_spans_us", "nn.matmul_spans", self, 1e3, "us"},
		{"nn.project_onehot_us", "nn.project_onehot", self, 1e3, "us"},
		{"serve.handler_hot_us", "serve.handler_hot", total, 1e3, "us"},
		{"serve.handler_miss_us", "serve.handler_miss", total, 1e3, "us"},
		{"serve.handler_batch_us", "serve.handler_batch", total, 1e3, "us"},
		{"serve.self_hot_us", "serve.handler_hot", self, 1e3, "us"},
		{"serve.self_miss_us", "serve.handler_miss", self, 1e3, "us"},
		{"serve.self_batch_us", "serve.handler_batch", self, 1e3, "us"},
		{"serve.http_hop_us", "serve.http_hop", total, 1e3, "us"},
		{"serve.http_hot_p50_us", "serve.http_hot", total, 1e3, "us"},
		{"serve.http_miss_p50_us", "serve.http_miss", total, 1e3, "us"},
	} {
		xs := m.from[m.span]
		if len(xs) == 0 {
			return fmt.Errorf("no %s spans recorded", m.span)
		}
		set(m.metric, median(xs)/m.div, m.unit)
	}
	// Rates: plans per second of each span (per-call time is ns per plan).
	for metricName, spanName := range map[string]string{"core.train_plans_s": "core.train", "core.finetune_plans_s": "core.finetune"} {
		set(metricName, 1e9/median(self[spanName]), "1/s")
	}
	set("gateway.hop_us", (median(total["gateway.hot"])-median(total["serve.http_hot"]))/1e3, "us")
	set("serve.unattributed_miss_us",
		(median(total["serve.http_miss"])-median(total["serve.handler_miss"])-median(total["serve.http_hop"]))/1e3, "us")
	set("optimizer.candidates_per_query", cands, "count")
	set("core.scorer_hit_ratio", scorerStats.HitRate(), "ratio")
	spliced := 0.0
	if rows := scorerStats.NodesCopied + scorerStats.NodesEncoded; rows > 0 {
		spliced = float64(scorerStats.NodesCopied) / float64(rows)
	}
	set("core.scorer_spliced_ratio", spliced, "ratio")
	set("nn.flops_per_plan", flops, "count")
	return nil
}

// handlerPhase replays n requests through Handler().ServeHTTP from c
// goroutines, records one root span each, and returns the requests plus the
// heap allocations per request. next(g) returns goroutine g's request
// source: each call yields a record and the body to post.
func (r *replayer) handlerPhase(name, path string, ctype []string, c, n int, next func(g int) func() (reqRec, []byte)) ([]reqRec, float64, error) {
	per := max(1, n/c)
	spans := make([][]span, c)
	recs := make([][]reqRec, c)
	errs := make([]error, c)
	srcs := make([]func() (reqRec, []byte), c)
	cls := make([]*inproc, c)
	for g := range srcs {
		srcs[g], cls[g] = next(g), newInproc(r.fx.handler)
		spans[g], recs[g] = make([]span, 0, per), make([]reqRec, 0, per)
	}
	// Everything the harness allocates is allocated above, so the malloc
	// delta over the phase is the handler's.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for g := 0; g < c; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec, body := srcs[g]()
				t0 := time.Now()
				status, resp := cls[g].do(http.MethodPost, path, ctype, body)
				t1 := time.Now()
				if status != http.StatusOK {
					errs[g] = fmt.Errorf("%s replay answered %d: %s", name, status, resp)
					return
				}
				spans[g] = append(spans[g], span{Name: name, Start: t0.Sub(r.tr.epoch).Nanoseconds(), End: t1.Sub(r.tr.epoch).Nanoseconds(), Parent: -1})
				recs[g] = append(recs[g], rec)
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	var out []reqRec
	for g := range spans {
		for i, sp := range spans[g] {
			r.tr.req++
			sp.Req = r.tr.req
			r.tr.spans = append(r.tr.spans, sp)
			recs[g][i].span = int32(len(r.tr.spans) - 1)
			out = append(out, recs[g][i])
		}
	}
	return out, float64(after.Mallocs-before.Mallocs) / float64(max(1, len(out))), nil
}

func (r *replayer) hotRequest(g int) func() (reqRec, []byte) {
	i := g
	return func() (reqRec, []byte) {
		i = (i + 7) % r.fx.sz.hot
		return reqRec{tmpl: i}, r.fx.templates[i].body
	}
}

func (r *replayer) missRequest(g int) func() (reqRec, []byte) {
	rng, u := rand.New(rand.NewSource(int64(g))), newUniq(replayPartition+g, 0)
	ts := make([]jsonTemplate, len(r.fx.templates))
	for i, t := range r.fx.templates {
		ts[i] = t.clone()
	}
	return func() (reqRec, []byte) {
		i, k := rng.Intn(len(ts)), u.draw()
		return reqRec{tmpl: i, k: k}, ts[i].patch(k)
	}
}

func (r *replayer) batchRequest(g int) func() (reqRec, []byte) {
	u := newUniq(replayPartition+8+g, 0)
	b := r.fx.batch
	b.body = bytes.Clone(b.body)
	return func() (reqRec, []byte) {
		k := u.next
		return reqRec{k: k}, b.patch(u)
	}
}

// bodyKey is the body-cache key handlePredict derives for a JSON request
// with no format or database parameter.
func bodyKey(body []byte) servecache.Key { return servecache.KeyOf(body, nil, nil) }

func (r *replayer) hotStages(recs []reqRec) error {
	for i := 0; i < r.fx.sz.hot; i++ {
		r.bodyProbe.Put(bodyKey(r.fx.templates[i].body), r.fx.templates[i].body)
	}
	for _, rec := range recs {
		body := r.fx.templates[rec.tmpl].body
		var cur int64
		var key servecache.Key
		r.tr.child(rec.span, &cur, "servecache.keyof", 1, 1, func() { key = bodyKey(body) })
		ok := false
		// One Get is ~60 ns, about what reading the clock twice costs: time
		// eight and charge the request one.
		r.tr.child(rec.span, &cur, "servecache.get_hit", 1, 8, func() { _, ok = r.bodyProbe.Get(key) })
		if !ok {
			return fmt.Errorf("hot stage replay: probe cache lost a hot body")
		}
	}
	return nil
}

func (r *replayer) missStages(recs []reqRec) error {
	for _, rec := range recs {
		body := r.fx.templates[rec.tmpl].clone().patch(rec.k)
		var cur int64
		var bk, pk servecache.Key
		var f *plan.FlatPlan
		var err error
		var tree *plan.Plan
		r.tr.child(rec.span, &cur, "servecache.keyof", 1, 1, func() { bk = bodyKey(body) })
		r.tr.child(rec.span, &cur, "plan.decode_json", 1, 1, func() {
			if f, err = r.dec.Decode(body); err == nil {
				err = f.Check()
			}
		})
		if err != nil {
			return fmt.Errorf("miss stage replay: %w", err)
		}
		pk = servecache.Key(f.Fingerprint)
		r.tr.child(rec.span, &cur, "servecache.get_miss", 2, 4, func() {
			r.bodyProbe.Get(bk)
			r.planProbe.Get(pk)
		})
		r.tr.child(rec.span, &cur, "plan.tree", 1, 1, func() { tree = f.Tree() })
		// What the micro-batcher calls for a batch of one.
		fwd := r.tr.child(rec.span, &cur, "core.subplans_tree", 1, 1, func() {
			r.outs = r.fx.model.AppendPredictSubPlansBatch(r.outs, []*plan.Plan{tree}, 0)
		})
		var inner int64
		r.tr.child(fwd, &inner, "featurize.encode_tree", 1, 1, func() { r.fx.model.Enc.EncodeInto(&r.scratch, tree) })
		r.tr.child(rec.span, &cur, "servecache.put_evict", 2, 1, func() {
			r.planProbe.Put(pk, r.outs[0])
			r.bodyProbe.Put(bk, nil) // Put's cost does not depend on the value
		})
		r.outs[0] = nil // the probe cache owns it now
	}
	return nil
}

func (r *replayer) batchStages(recs []reqRec) error {
	nb := r.fx.sz.batch
	b := r.fx.batch
	b.body = bytes.Clone(b.body)
	flats := make([]*plan.FlatPlan, nb)
	trees := make([]*plan.Plan, nb)
	keys := make([]servecache.Key, nb)
	for _, rec := range recs {
		body := b.patch(&uniq{next: rec.k, end: rec.k + uint64(nb)})
		var cur int64
		var err error
		r.tr.child(rec.span, &cur, "plan.decode_binary", nb, 1, func() {
			var bb *plan.BinaryBatch
			if bb, err = plan.NewBinaryBatch(body); err != nil {
				return
			}
			for i := 0; i < nb && err == nil; i++ {
				if flats[i], err = bb.Next(&r.decs[i]); err == nil {
					err = flats[i].Check()
				}
			}
		})
		if err != nil {
			return fmt.Errorf("batch stage replay: %w", err)
		}
		r.tr.child(rec.span, &cur, "plan.tree", nb, 1, func() {
			for i, f := range flats {
				trees[i] = f.Tree()
			}
		})
		for i, f := range flats {
			keys[i] = servecache.Key(f.Fingerprint)
		}
		r.tr.child(rec.span, &cur, "servecache.get_miss", nb, 1, func() {
			for _, k := range keys {
				r.planProbe.Get(k)
			}
		})
		var got [][]float64
		r.tr.child(rec.span, &cur, "core.subplans_batch", nb, 1, func() {
			got = r.fx.model.PredictSubPlansBatch(trees, 0)
		})
		r.tr.child(rec.span, &cur, "servecache.put_evict", nb, 1, func() {
			for i, k := range keys {
				r.planProbe.Put(k, got[i])
			}
		})
	}
	return nil
}

// libraryStages times the per-plan library calls on the verify plans.
func (r *replayer) libraryStages() error {
	m := r.fx.model
	var fps []plan.Fingerprint
	row := make([]float64, featurize.FeatureDim)
	var nodes []*plan.Node
	for i := 0; i < r.fx.sz.verify; i++ {
		p := r.fx.holdout[i]
		f, err := r.dec.Decode(r.fx.templates[i].body)
		if err != nil {
			return fmt.Errorf("library replay: %w", err)
		}
		r.tr.root("featurize.encode_flat", 1, func() { m.Enc.EncodeFlatInto(&r.scratch, f) })
		r.tr.root("core.subplans_flat", 1, func() { r.preds = m.AppendPredictSubPlansFlat(r.preds[:0], f) })
		r.tr.root("core.predict_root", 1, func() { m.Predict(p) })
		r.tr.root("plan.subtree_fingerprints", 1, func() { fps = p.AppendSubtreeFingerprints(fps[:0]) })
		nodes = p.AppendDFS(nodes[:0])
		r.tr.root("featurize.node_row", len(nodes), func() {
			for _, n := range nodes {
				clear(row)
				m.Enc.EncodeNodeRow(row, n)
			}
		})
	}
	return nil
}

// candidateRecorder scores by classic cost, leaving every plan choice as
// the classic planner's, while capturing the candidates the DP asked about.
type candidateRecorder struct{ cur []*plan.Node }

func (c *candidateRecorder) AppendScoreCandidates(buf []float64, cands []*plan.Node) []float64 {
	c.cur = append(c.cur, cands...)
	for _, n := range cands {
		buf = append(buf, n.EstCost)
	}
	return buf
}

// optimizerStages times the classic DP, the DACE-guided DP, and — as the
// guided DP's replayed child — the Scorer on the candidates a DP asks
// about. It returns candidates per query and the replay Scorer's counters.
func (r *replayer) optimizerStages() (float64, core.ScorerStats, error) {
	fx := r.fx
	rec := &candidateRecorder{}
	recorder := optimizer.New(fx.imdb)
	recorder.CostModel = rec
	batches := make([][]*plan.Node, len(fx.queries))
	total := 0
	for i, q := range fx.queries {
		if _, err := recorder.Plan(q); err != nil {
			return 0, core.ScorerStats{}, err
		}
		batches[i], rec.cur = rec.cur, nil
		total += len(batches[i])
	}
	classic := optimizer.New(fx.imdb)
	guided := optimizer.New(fx.imdb)
	live, replay := core.NewScorer(fx.model), core.NewScorer(fx.model)
	guided.CostModel = live
	var scores []float64
	var err error
	for pass := 0; pass < 2; pass++ {
		live.Reset()
		replay.Reset()
		for i, q := range fx.queries {
			r.tr.root("optimizer.dp_classic", 1, func() { _, err = classic.Plan(q) })
			if err != nil {
				return 0, core.ScorerStats{}, err
			}
			dp := r.tr.root("optimizer.dp_dace", 1, func() { _, err = guided.Plan(q) })
			if err != nil {
				return 0, core.ScorerStats{}, err
			}
			var cur int64
			r.tr.child(dp, &cur, "core.scorer_score", len(batches[i]), 1, func() {
				scores = replay.AppendScoreCandidates(scores[:0], batches[i])
			})
		}
	}
	return float64(total) / float64(len(fx.queries)), replay.Stats(), nil
}

// trainStages times the pieces of train_adapt's operation and a model load.
func (r *replayer) trainStages() error {
	fx := r.fx
	var saved bytes.Buffer
	if err := fx.model.Save(&saved); err != nil {
		return err
	}
	cfg := fx.cfg
	cfg.Epochs, cfg.Workers = 1, 0
	const ftEpochs = 2
	for i := 0; i < 5; i++ {
		r.tr.root("core.train", fx.sz.trainSlice, func() { core.Train(fx.train[:fx.sz.trainSlice], cfg) })
		var m *core.Model
		r.tr.root("core.clone", 1, func() { m = fx.model.Clone() })
		m.Cfg.Workers = 0
		r.tr.root("core.finetune", fx.sz.fineTune*ftEpochs, func() { m.FineTuneLoRA(fx.m2[:fx.sz.fineTune], 2e-3, ftEpochs) })
		var err error
		r.tr.root("core.model_load", 1, func() { err = core.NewModel(fx.cfg).Load(bytes.NewReader(saved.Bytes())) })
		if err != nil {
			return err
		}
	}
	return nil
}

// kernelStages times the three attention kernels on the median-size verify
// plan and returns the forward pass's floating-point operations for that
// plan, computed from the sizes (not measured).
func (r *replayer) kernelStages() float64 {
	fx := r.fx
	byNodes := make([]int, fx.sz.verify)
	for i := range byNodes {
		byNodes[i] = i
	}
	sort.Slice(byNodes, func(a, b int) bool {
		return fx.holdout[byNodes[a]].NodeCount() < fx.holdout[byNodes[b]].NodeCount()
	})
	m := fx.model
	enc := m.Enc.Encode(fx.holdout[byNodes[len(byNodes)/2]])
	n, dk, dv := enc.X.Rows, m.Cfg.DK, m.Cfg.DV
	q, k, v := nn.NewMatrix(n, dk), nn.NewMatrix(n, dk), nn.NewMatrix(n, dv)
	probs, out := nn.NewMatrix(n, n), nn.NewMatrix(n, dv)
	nn.ProjectOneHotInto(k, enc.X, m.Att.WK.Value, enc.Types, plan.NumNodeTypes)
	nn.ProjectOneHotInto(v, enc.X, m.Att.WV.Value, enc.Types, plan.NumNodeTypes)
	inv := 1 / math.Sqrt(float64(dk))
	for i := 0; i < max(10, fx.sz.replay/10); i++ {
		r.tr.root("nn.project_onehot", 1, func() {
			nn.ProjectOneHotInto(q, enc.X, m.Att.WQ.Value, enc.Types, plan.NumNodeTypes)
		})
		r.tr.root("nn.masked_softmax", 1, func() { nn.MaskedSoftmaxQKTInto(probs, q, k, inv, enc.Spans) })
		r.tr.root("nn.matmul_spans", 1, func() { nn.MatMulSpansInto(out, probs, v, enc.Spans) })
	}
	// Per row a projection adds one type row of W and multiply-adds the two
	// scaled feature rows; attention touches only the pairs inside spans.
	pairs := 0
	for _, s := range enc.Spans {
		pairs += int(s.Hi - s.Lo)
	}
	flops := float64(n * (2*dk + dv) * 5)
	flops += float64(2 * pairs * (dk + dv))
	in := dv
	for _, h := range m.Cfg.Hidden {
		flops += float64(2 * n * in * h)
		in = h
	}
	return flops
}

// socketStages times what a socket adds: a round trip to a no-op net/http
// handler, a hot /predict and a miss /predict over loopback, and the gateway
// in front of the replica.
func (r *replayer) socketStages() error {
	fx := r.fx
	n := fx.sz.replay
	typical := fx.templates[fx.sz.hot/2].body

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	okBody, okLen := []byte("ok\n"), []string{"3"}
	noop := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body)
		h := w.Header()
		h["Content-Type"], h["Content-Length"] = ctJSON, okLen
		w.Write(okBody)
	})}
	go noop.Serve(ln)
	defer noop.Close()
	conn, err := dialSock(ln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.close()
	post := func(c *sockConn, name string, body []byte) error {
		var status int
		var err error
		r.tr.root(name, 1, func() { status, _, err = c.do(http.MethodPost, "/predict", ctJSON, body) })
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s answered %d", name, status)
		}
		return err
	}
	for i := 0; i < n; i++ {
		if err := post(conn, "serve.http_hop", typical); err != nil {
			return err
		}
	}

	srv, err := dialSock(fx.addr)
	if err != nil {
		return err
	}
	defer srv.close()
	for i := 0; i < n; i++ {
		if err := post(srv, "serve.http_hot", fx.templates[i*7%fx.sz.hot].body); err != nil {
			return err
		}
	}

	// Misses over two connections at once, as serve_miss sends them. Spans
	// are collected per connection and merged afterwards.
	const conns = 2
	parts := make([]*trace, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := dialSock(fx.addr)
			if err != nil {
				errs[g] = err
				return
			}
			defer c.close()
			parts[g] = &trace{epoch: r.tr.epoch}
			src := r.missRequest(16 + g)
			for i := 0; i < n/4 && errs[g] == nil; i++ {
				_, body := src()
				var status int
				parts[g].root("serve.http_miss", 1, func() { status, _, errs[g] = c.do(http.MethodPost, "/predict", ctJSON, body) })
				if errs[g] == nil && status != http.StatusOK {
					errs[g] = fmt.Errorf("serve.http_miss answered %d", status)
				}
			}
		}()
	}
	wg.Wait()
	for g, p := range parts {
		if errs[g] != nil {
			return errs[g]
		}
		for _, sp := range p.spans {
			r.tr.req++
			sp.Req = r.tr.req
			r.tr.spans = append(r.tr.spans, sp)
		}
	}

	gw, err := gateway.New(gateway.Config{Replicas: []string{fx.addr}})
	if err != nil {
		return err
	}
	defer gw.Close()
	cl := newInproc(gw.Handler())
	for i := -fx.sz.hot; i < n/2; i++ {
		body := fx.templates[(i+fx.sz.hot)%fx.sz.hot].body
		if i < 0 { // first pass: the replica caches the gateway's binary re-encoding
			cl.do(http.MethodPost, "/predict", ctJSON, body)
			continue
		}
		var status int
		r.tr.root("gateway.hot", 1, func() { status, _ = cl.do(http.MethodPost, "/predict", ctJSON, body) })
		if status != http.StatusOK {
			return fmt.Errorf("gateway.hot answered %d", status)
		}
	}
	return nil
}
