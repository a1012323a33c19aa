package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"dace/internal/core"
	"dace/internal/dataset"
	"dace/internal/executor"
	"dace/internal/plan"
	"dace/internal/schema"
	"dace/internal/serve"
	"dace/internal/telemetry"
	"dace/internal/workload"
)

// Fixture sizes. The plan population is fixed — it does not depend on
// -seed — so qerror_* are a function of the commit alone and the spread
// between seeds measures the host, not a different mix of plan sizes. The
// seed drives request order, template choice and perturbation draws.
const fixtureSeed = 12

// sizes scales the fixture. fullSizes is what every reported number uses;
// the unit tests' smoke runs shrink it so five setups fit in a few seconds.
type sizes struct {
	trainPerDB   int // workload.Complex queries per training database
	epochs       int // pre-training epochs
	holdout      int // IMDB plans labelled on M1: verify set, hot set, miss templates
	m2           int // IMDB plans labelled on M2: adaptation set, then its hold-out
	verify       int // hold-out plans checked bitwise before timing
	hot          int // serve_hot working set
	batch        int // plans per serve_batch frame
	dpQueries    int // optimizer_dp queries per pass
	fineTune     int // M2 plans the LoRA fine-tune sees
	trainSlice   int // plans in train_adapt's one-epoch Train
	adaptPredict int // M2 hold-outs train_adapt predicts per operation
	cacheSize    int // serve.Config.CacheSize (daced default 8192)
	replay       int // hot requests the traced run replays; other kinds scale from it
}

var fullSizes = sizes{
	trainPerDB: 120, epochs: 8, holdout: 512, m2: 128, verify: 256, hot: 256, batch: 32,
	dpQueries: 48, fineTune: 32, trainSlice: 16, adaptPredict: 32, cacheSize: 8192, replay: 2000,
}

var trainDBs = []string{"tpc_h", "airline", "baseball"}

// fixture is everything a workload runs against. One is built per setup
// repetition; the last one built serves the run.
type fixture struct {
	sz      sizes
	cfg     core.Config
	model   *core.Model
	imdb    *schema.Database
	train   []*plan.Plan
	holdout []*plan.Plan
	m2      []*plan.Plan
	queries []*workload.Query

	templates []jsonTemplate // one per hold-out plan
	batch     binBatch       // the first nBatch hold-out plans

	srv     *serve.Server
	handler http.Handler
	httpSrv *http.Server
	addr    string

	// Expected answers, recorded by prefill/verify before anything is timed.
	hotExpected   [][]byte           // response bytes per hot body
	dpExpected    []plan.Fingerprint // plan per optimizer_dp query
	adaptExpected []float64          // train_adapt's hold-out predictions

	phases map[string]float64 // seconds, keyed gen/pretrain/bodies/server
}

// close stops the loopback server and drains the batcher.
func (fx *fixture) close() {
	if fx.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		fx.httpSrv.Shutdown(ctx)
		cancel()
	}
	if fx.srv != nil {
		fx.srv.Close()
	}
}

// serverConfig mirrors daced's flag defaults.
func serverConfig(cacheSize int) serve.Config {
	return serve.Config{
		CacheSize:  cacheSize,
		MaxBatch:   64,
		MaxWait:    200 * time.Microsecond,
		QueueDepth: 4096,
		Metrics:    telemetry.NewRegistry(),
	}
}

// buildFixture runs the setup phases. prefill is the workload's cache
// warm-up and is charged to the server phase.
func buildFixture(sz sizes, prefill func(*fixture) error) (*fixture, error) {
	fx := &fixture{sz: sz, phases: map[string]float64{}}
	phase := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		fx.phases[name] = time.Since(t0).Seconds()
		return err
	}

	if err := phase("gen", fx.generate); err != nil {
		return nil, err
	}
	if err := phase("pretrain", func() error {
		fx.cfg = core.DefaultConfig()
		fx.cfg.Epochs = sz.epochs
		fx.cfg.Seed = fixtureSeed
		// Serial on purpose: the two-worker pre-train's wall time spread
		// 15% between runs on the shared two-core box, the serial one 9%.
		fx.cfg.Workers = 1
		fx.model = core.Train(fx.train, fx.cfg)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := phase("bodies", fx.buildBodies); err != nil {
		return nil, err
	}
	if err := phase("server", func() error {
		if err := fx.startServer(); err != nil {
			return err
		}
		return prefill(fx)
	}); err != nil {
		fx.close()
		return nil, err
	}
	return fx, nil
}

func (fx *fixture) setupSeconds() float64 {
	return fx.phases["gen"] + fx.phases["pretrain"] + fx.phases["bodies"] + fx.phases["server"]
}

func (fx *fixture) generate() error {
	for _, name := range trainDBs {
		db := schema.BenchmarkDB(name)
		qs := workload.Complex(db, fx.sz.trainPerDB, int64(schema.Hash64("benchmark-train", name))+fixtureSeed)
		samples, err := dataset.Collect(db, qs, executor.M1())
		if err != nil {
			return err
		}
		fx.train = append(fx.train, dataset.Plans(samples)...)
	}
	fx.imdb = schema.IMDB()
	qs := workload.Complex(fx.imdb, fx.sz.holdout+fx.sz.m2, int64(schema.Hash64("benchmark-holdout"))+fixtureSeed)
	m1, err := dataset.Collect(fx.imdb, qs[:fx.sz.holdout], executor.M1())
	if err != nil {
		return err
	}
	m2, err := dataset.Collect(fx.imdb, qs[fx.sz.holdout:], executor.M2())
	if err != nil {
		return err
	}
	fx.holdout, fx.m2 = dataset.Plans(m1), dataset.Plans(m2)
	fx.queries = workload.Complex(fx.imdb, fx.sz.dpQueries, int64(schema.Hash64("benchmark-dp"))+fixtureSeed)
	return nil
}

func (fx *fixture) buildBodies() error {
	fx.templates = make([]jsonTemplate, len(fx.holdout))
	for i, p := range fx.holdout {
		t, err := newJSONTemplate(p)
		if err != nil {
			return fmt.Errorf("holdout[%d]: %w", i, err)
		}
		fx.templates[i] = t
	}
	var err error
	fx.batch, err = newBinBatch(fx.holdout[:fx.sz.batch])
	return err
}

func (fx *fixture) startServer() error {
	fx.srv = serve.NewWithConfig(fx.model, serverConfig(fx.sz.cacheSize))
	fx.handler = fx.srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fx.addr = ln.Addr().String()
	fx.httpSrv = &http.Server{Handler: fx.handler}
	go fx.httpSrv.Serve(ln) // returns ErrServerClosed once close() shuts it down
	return nil
}

// health reads /healthz in process.
func (fx *fixture) health() (serve.Health, error) {
	var h serve.Health
	status, body := newInproc(fx.handler).do(http.MethodGet, "/healthz", nil, nil)
	if status != http.StatusOK {
		return h, fmt.Errorf("benchmark: /healthz answered %d", status)
	}
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&h)
	return h, err
}
