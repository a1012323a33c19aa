// Command daced serves a trained DACE model over HTTP for query
// performance prediction, through one serving pipeline: plan-fingerprint
// caching, request coalescing, bounded forward concurrency with
// backpressure, and Prometheus metrics on GET /metrics. The only switch is
// the caches' (-cache-size 0). A model file says by itself whether it
// carries LoRA adapters (dace finetune output does).
//
//	daced -model dace.json -addr :8080
//	daced -model dace.json -cache-size 0     # every request runs its own forward pass
//	daced -version                           # build info and exit
//	curl -XPOST localhost:8080/predict --data-binary @plan.json
//	curl -XPOST 'localhost:8080/predict?format=pg' --data-binary @explain.json
//	curl -XPOST -H 'Content-Type: application/x-dace-plan' \
//	     localhost:8080/predict --data-binary @plan.bin   # `dace encode` output
//	curl localhost:8080/healthz
//	curl localhost:8080/metrics
//
// Online adaptation (always on; -feedback-log and -model-dir make it
// durable):
//
//	daced -model dace.json -feedback-log feedback.log -model-dir models \
//	      -adapt-interval 10m -adapt-min-samples 256 -adapt-gate 0.02
//	curl -XPOST localhost:8080/feedback -d '{"plan": {...}, "actual_ms": 12.5}'
//	curl localhost:8080/adapt/status
//	curl -XPOST localhost:8080/adapt/trigger
//
// Feedback samples land in a bounded replay buffer (mirrored to the
// -feedback-log for crash recovery) and a background controller fine-tunes
// a LoRA clone off the serving path — on drift, on enough fresh samples, or
// on the -adapt-interval timer — promoting it only when it beats the
// incumbent on a held-out split; promotions are persisted as versioned
// artifacts under -model-dir, and a restart resumes the version that was
// being served — the last promotion, or whatever /model/load put there since.
//
// Multi-tenant serving (-tenants-dir): one frozen encoder, N databases.
// The loaded model is tenant zero; each named tenant is a LoRA adapter set
// over it, selected per request by the X-DACE-Tenant header or the database
// query param; feedback flows into per-tenant replay stores and gated
// fine-tunes that persist versioned adapter artifacts under
// <tenants-dir>/<tenant>/. Every background fine-tune, tenant zero's and
// each named tenant's, runs on one pool of -tenant-workers goroutines:
//
//	daced -model dace.json -tenants-dir tenants
//	curl -XPOST localhost:8080/tenants/airline                # register
//	curl -XPOST -H 'X-DACE-Tenant: airline' \
//	     localhost:8080/predict --data-binary @plan.json      # tenant view
//	curl localhost:8080/tenants                               # fleet state
//
// Cluster mode (-gateway): instead of serving a model, daced fronts a
// fleet of daced replicas and routes /predict and /predict/batch traffic
// by consistent-hashing each plan's fingerprint, so every replica's caches
// stay hot on a stable shard of the plan space. A replica that fails a
// request or two readiness probes leaves the ring until it passes two, and
// /rollout moves the whole fleet to one model version, one replica first
// (each replica loads the version from its own -model-dir):
//
//	daced -gateway localhost:8081,localhost:8082 -addr :8080
//	curl localhost:8080/healthz                            # per-replica state
//	curl -XPOST 'localhost:8080/rollout/start?version=3'   # v3 on one canary
//	curl -XPOST localhost:8080/rollout/commit              # v3 everywhere
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux (-pprof listener only)
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dace/internal/adapt"
	"dace/internal/core"
	"dace/internal/feedback"
	"dace/internal/gateway"
	"dace/internal/serve"
	"dace/internal/telemetry"
	"dace/internal/tenant"
	"dace/internal/version"
)

func main() {
	modelPath := flag.String("model", "dace.json", "trained model (dace train / dace finetune output)")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "inference workers: forward passes /predict runs at once, and the /predict/batch fan-out (0 = all CPUs)")
	cacheSize := flag.Int("cache-size", 8192, "prediction cache entries (0 disables caching)")
	pprofAddr := flag.String("pprof", "", "if set (e.g. localhost:6060), serve net/http/pprof on this address")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	showVersion := flag.Bool("version", false, "print build info and exit")
	feedbackLog := flag.String("feedback-log", "", "append-only feedback log for crash-safe replay (empty disables durability)")
	adaptInterval := flag.Duration("adapt-interval", 0, "timer between background adaptation attempts (0 = drift/manual triggers only)")
	adaptMinSamples := flag.Int("adapt-min-samples", 256, "replay-buffer floor before a fine-tune may run")
	adaptGate := flag.Float64("adapt-gate", 0.02, "fractional holdout q-error improvement (median AND p90) required to promote")
	modelDir := flag.String("model-dir", "", "directory for versioned promoted-model artifacts (empty keeps promotions in memory only)")
	tenantsDir := flag.String("tenants-dir", "", "serve per-tenant LoRA adapters over one shared frozen encoder, persisting each tenant's artifacts under this directory")
	tenantWorkers := flag.Int("tenant-workers", 1, "background fine-tunes that may run at once, the loaded model's and every tenant's together")
	drainGrace := flag.Duration("drain-grace", 0, "delay between flipping /healthz/ready unready and closing the listener, so upstream gateways eject this replica first")
	gatewayReplicas := flag.String("gateway", "", "run as a cluster gateway over this comma-separated replica list (host:port,...) instead of serving a model")
	gwMaxInflight := flag.Int("gw-max-inflight", 0, "gateway: max concurrent upstream requests per replica before 503 backpressure (0 = 256)")
	gwHealthInterval := flag.Duration("gw-health-interval", 0, "gateway: replica readiness probe period (0 = 250ms)")
	flag.Parse()

	if *showVersion {
		fmt.Println("daced " + version.Get().String())
		return
	}

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "daced:", err)
		os.Exit(1)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	reg := telemetry.NewRegistry()
	version.Register(reg)

	if *gatewayReplicas != "" {
		runGateway(logger, reg, gatewayConfig{
			addr:           *addr,
			replicas:       strings.Split(*gatewayReplicas, ","),
			maxInflight:    *gwMaxInflight,
			healthInterval: *gwHealthInterval,
			drainGrace:     *drainGrace,
		})
		return
	}

	m := core.NewModel(core.DefaultConfig())
	f, err := os.Open(*modelPath)
	if err != nil {
		fatal("open model", "err", err)
	}
	if err := m.Load(f); err != nil {
		fatal("load model", "err", err, "path", *modelPath)
	}
	f.Close()

	if *pprofAddr != "" {
		// The profiling endpoints stay off the service mux: they bind a
		// separate (typically loopback) listener and are absent by default.
		go func() {
			logger.Info("pprof listening", "url", "http://"+*pprofAddr+"/debug/pprof/")
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fatal("pprof listener", "err", err)
			}
		}()
	}

	// One pool runs every background fine-tune in the process.
	pool := adapt.NewPool(*tenantWorkers)

	// Tenant zero — the loaded model — adapts from the one durable feedback
	// log, into -model-dir.
	store := feedback.NewStore(8192, 1)
	var flog *feedback.Log
	if *feedbackLog != "" {
		flog, err = feedback.Open(*feedbackLog)
		if err != nil {
			fatal("feedback log", "err", err)
		}
		defer flog.Close()
		n, err := flog.Replay(func(smp feedback.Sample) error {
			store.Add(smp)
			return nil
		})
		if err != nil {
			fatal("feedback replay", "err", err)
		}
		if n > 0 {
			logger.Info("replayed feedback log", "samples", n, "resident", store.Len())
		}
	}
	feedback.RegisterMetrics(reg, store, flog)
	domains := tenant.New(m, store, flog, tenant.Config{
		Dir: *tenantsDir,
		Adapt: adapt.Config{
			Interval:       *adaptInterval,
			MinSamples:     *adaptMinSamples,
			Gate:           *adaptGate,
			DriftThreshold: 2.0,
			ModelDir:       *modelDir,
			Logger:         logger.With("component", "adapt"),
		},
		Pool:    pool,
		Metrics: reg,
		Logger:  logger.With("component", "tenant"),
	})
	// A model directory's current version outranks the loaded model (which
	// stays loadable as version 0).
	if v, err := domains.Zero().Resume(); err != nil {
		fatal("model dir", "err", err)
	} else if v > 0 {
		logger.Info("resuming from promoted model", "version", v, "dir", *modelDir)
	}

	// Multi-tenant serving: freeze what tenant zero serves now as the shared
	// base and load every tenant's current adapter artifact.
	if *tenantsDir != "" {
		adapted, err := domains.EnableTenants()
		if err != nil {
			fatal("tenants dir", "err", err)
		}
		logger.Info("tenants loaded", "dir", *tenantsDir, "tenants", domains.Len(), "adapted", adapted)
	}

	s := serve.NewWithRegistry(domains, serve.Config{CacheSize: *cacheSize, Metrics: reg})
	s.Workers = *workers

	logger.Info("serving",
		"model", *modelPath, "addr", *addr, "version", version.Get().Version,
		"cache", *cacheSize)
	// Flip readiness off first and give upstream gateways the grace period
	// to observe it and eject this replica — new traffic stops arriving
	// before the listener closes, so nothing gets refused. After Shutdown,
	// drain the admission stage so every waiting prediction is answered.
	serveUntilSignal(logger, *addr, s.Handler(), *drainGrace, s.BeginDrain, func() {
		s.Close()
		// Wait out any in-flight fine-tune — it persists its artifact and
		// its feedback is flushed — before the deferred Close tears the
		// feedback log down.
		pool.Stop()
	})
}

// serveUntilSignal listens on addr until SIGINT/SIGTERM, then shuts down
// gracefully: beginDrain, the drain-grace pause, http.Server.Shutdown (stop
// accepting, let in-flight requests finish), closeAll. A listener that fails
// on its own exits the process.
func serveUntilSignal(logger *slog.Logger, addr string, h http.Handler, drainGrace time.Duration, beginDrain, closeAll func()) {
	srv := &http.Server{Addr: addr, Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Info("draining", "signal", sig.String())
		beginDrain()
		if drainGrace > 0 {
			time.Sleep(drainGrace)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "err", err)
		}
		cancel()
		closeAll()
		logger.Info("drained")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Error("listen", "err", err)
			os.Exit(1)
		}
	}
}

// gatewayConfig carries the -gateway mode flags.
type gatewayConfig struct {
	addr           string
	replicas       []string
	maxInflight    int
	healthInterval time.Duration
	drainGrace     time.Duration
}

// runGateway is daced's cluster-gateway main loop: no model, no serving
// pipeline — just fingerprint-sharded routing over the replica fleet.
func runGateway(logger *slog.Logger, reg *telemetry.Registry, cfg gatewayConfig) {
	for i := range cfg.replicas {
		cfg.replicas[i] = strings.TrimSpace(cfg.replicas[i])
	}
	g, err := gateway.New(gateway.Config{
		Replicas:       cfg.replicas,
		MaxInflight:    cfg.maxInflight,
		HealthInterval: cfg.healthInterval,
		Metrics:        reg,
	})
	if err != nil {
		logger.Error("gateway", "err", err)
		os.Exit(1)
	}
	logger.Info("gateway serving",
		"addr", cfg.addr, "replicas", len(cfg.replicas), "version", version.Get().Version)
	serveUntilSignal(logger, cfg.addr, g.Handler(), cfg.drainGrace, g.BeginDrain, g.Close)
}

// newLogger builds the process logger: human-oriented text (default) or
// line-delimited JSON for log shippers.
func newLogger(format string) (*slog.Logger, error) {
	var h slog.Handler
	switch format {
	case "text", "":
		h = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
	return slog.New(h).With("app", "daced"), nil
}
