// Package adapt closes DACE's online-adaptation loop: it watches the
// q-error of served predictions against reported actuals, and when the
// serving model has drifted (or a timer fires, or an operator asks), it
// fine-tunes a LoRA clone on the replay buffer off the serving path and
// promotes the candidate only if it beats the incumbent on a held-out
// split. Promotions are persisted as versioned, checksummed artifacts so
// the daemon can restart into its adapted state and roll back a regression.
//
// A Controller is one adaptation domain — the base model's, or one tenant's
// (internal/tenant builds a Controller per tenant over its adapter view).
// Whatever changes what a domain serves goes through its controller and is
// serialized there: a fine-tune attempt (RunOnce), an operator or gateway
// loading a version (Load), a rollback, the start-up resume. Background
// attempts from every domain in the process run on one bounded Pool.
package adapt

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dace/internal/core"
	"dace/internal/feedback"
	"dace/internal/metrics"
	"dace/internal/nn"
	"dace/internal/plan"
)

// Host is the serving surface the controller adapts: read the served model
// with its artifact version, atomically publish another pair. The version
// lives only there — Status reads it back. Admit is asked before an artifact
// read from disk is published and says why the host cannot serve it (a
// tenant's adapters must fit the shared base); nil admits it.
// *serve.Server satisfies Host.
type Host interface {
	Served() (m *core.Model, version int)
	Admit(m *core.Model) error
	Publish(m *core.Model, version int)
}

// Config tunes the controller. Zero values take the documented defaults.
type Config struct {
	// Interval between timer-driven adaptation attempts on the Pool the
	// controller is attached to; 0 disables the timer (drift and manual
	// triggers still work).
	Interval time.Duration
	// MinSamples is the replay-buffer floor below which RunOnce refuses to
	// fine-tune (default 256).
	MinSamples int
	// Gate is the fractional improvement the candidate must show on BOTH
	// the holdout median and P90 q-error to be promoted (default 0.02,
	// i.e. 2% better). The comparison is strict, so an identical candidate
	// never ousts the incumbent.
	Gate float64
	// DriftThreshold enqueues an adaptation attempt on the Pool when the
	// rolling median q-error of served predictions crosses it. Zero (the
	// default) or negative disables drift detection; daced passes 2.0.
	DriftThreshold float64
	// DriftWindow is the number of recent observations the rolling median
	// is computed over (default 128).
	DriftWindow int
	// HoldoutFrac is the fraction of the snapshot held out for gating
	// (default 0.2, at least one sample).
	HoldoutFrac float64
	// LR and Epochs drive FineTuneLoRA (defaults 2e-3, 12).
	LR     float64
	Epochs int
	// ModelDir, when set, persists every promotion as a versioned artifact.
	ModelDir string
	// Seed drives the train/holdout shuffle (default 1).
	Seed int64
	// Logger, when set, emits structured promote/reject/error/rollback
	// events. Nil keeps the controller silent (status is still queryable).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MinSamples <= 0 {
		c.MinSamples = 256
	}
	if c.Gate <= 0 {
		c.Gate = 0.02
	}
	if c.DriftWindow <= 0 {
		c.DriftWindow = 128
	}
	if c.HoldoutFrac <= 0 || c.HoldoutFrac >= 1 {
		c.HoldoutFrac = 0.2
	}
	if c.LR <= 0 {
		c.LR = 2e-3
	}
	if c.Epochs <= 0 {
		c.Epochs = 12
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Outcome reports one adaptation attempt.
type Outcome struct {
	Promoted bool   `json:"promoted"`
	Version  int    `json:"version,omitempty"` // artifact version when persisted
	Reason   string `json:"reason"`
	// When stamps the attempt's completion (RFC 3339), so a soak report can
	// line promotions up against its latency windows.
	When    string  `json:"when,omitempty"`
	Samples int     `json:"samples"`  // snapshot size used
	Holdout int     `json:"holdout"`  // held-out sample count
	TrainMS float64 `json:"train_ms"` // fine-tune wall time
	// Holdout q-error of incumbent and candidate.
	BeforeMedian float64 `json:"before_median"`
	BeforeP90    float64 `json:"before_p90"`
	AfterMedian  float64 `json:"after_median"`
	AfterP90     float64 `json:"after_p90"`
}

// Status is the controller's introspection surface, served as JSON by
// GET /adapt/status.
type Status struct {
	Running      bool           `json:"running"` // a fine-tune is in flight
	Store        feedback.Stats `json:"store"`
	DriftMedian  float64        `json:"drift_median"` // rolling served q-error median
	DriftN       int            `json:"drift_n"`
	Runs         int            `json:"runs"`
	Promotions   int            `json:"promotions"`
	Rejections   int            `json:"rejections"`
	ModelVersion int            `json:"model_version"` // the host's served artifact, 0 = seed
	Last         *Outcome       `json:"last,omitempty"`
}

// ErrBusy is returned by RunOnce when an adaptation attempt is already in
// flight; the serving layer answers it with 409 Conflict.
var ErrBusy = errors.New("adapt: adaptation already in progress")

// Controller owns one domain's adaptation. Observe is called on the serving
// hot path and only touches the replay store and the drift ring; the
// fine-tune itself runs on a clone, so serving reads the incumbent model
// undisturbed until the atomic Publish swap.
type Controller struct {
	host  Host
	store *feedback.Store
	log   *feedback.Log // optional durable log; may be nil
	cfg   Config
	seed  *core.Model // what the host served when the controller was built: version 0

	// Hooks, when set before the controller is used, is installed on every
	// fine-tune candidate so training epochs report loss/throughput/
	// utilization (EnableMetrics sets it).
	Hooks nn.TrainHooks

	// runMu serializes everything that publishes to the host — attempts,
	// loads, rollbacks — so a candidate is always gated against, and
	// replaces, the model that is being served when it is published.
	runMu sync.Mutex

	pool   *Pool       // background attempts run here; nil = synchronous only
	queued atomic.Bool // an attempt is waiting on the pool or running there

	mu      sync.Mutex // guards everything below
	window  []float64  // drift ring of recent served q-errors
	next    int
	filled  bool
	running bool
	runs    int
	promos  int
	rejects int
	last    *Outcome
}

// New builds a controller adapting host from store. log may be nil; when
// set, Observe appends every accepted sample to it. The model the host
// serves now is the domain's version 0.
func New(host Host, store *feedback.Store, log *feedback.Log, cfg Config) *Controller {
	seed, _ := host.Served()
	return &Controller{host: host, store: store, log: log, cfg: cfg.withDefaults(), seed: seed}
}

// Observe ingests one feedback sample: it lands in the replay store (and
// the durable log when accepted), and its q-error advances the drift
// window. When the rolling median crosses the threshold, an attempt is
// enqueued on the pool. f is read only during the call. Safe for concurrent
// use; never blocks on a fine-tune.
func (c *Controller) Observe(f *plan.FlatPlan, actualMS, predictedMS float64) {
	smp := feedback.Sample{Plan: f, ActualMS: actualMS, PredictedMS: predictedMS}
	if c.store.Add(smp) && c.log != nil {
		// Log failures must not fail serving; the sample is still resident
		// in memory, only durability degrades.
		_ = c.log.Append(smp)
	}
	if predictedMS <= 0 || actualMS <= 0 {
		return
	}
	q := metrics.QError(predictedMS, actualMS)

	c.mu.Lock()
	if len(c.window) < c.cfg.DriftWindow {
		c.window = append(c.window, q)
	} else {
		c.window[c.next] = q
		c.next = (c.next + 1) % c.cfg.DriftWindow
		c.filled = true
	}
	drifted := c.cfg.DriftThreshold > 0 &&
		(c.filled || len(c.window) >= c.cfg.DriftWindow/2) &&
		medianOf(c.window) > c.cfg.DriftThreshold
	c.mu.Unlock()

	if drifted {
		c.Enqueue()
	}
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return metrics.Summarize(append([]float64(nil), xs...)).Median
}

// ErrTooFewSamples is returned by RunOnce when the replay buffer has not
// reached Config.MinSamples.
var ErrTooFewSamples = errors.New("adapt: not enough feedback samples")

// StatusNow snapshots the controller state.
func (c *Controller) StatusNow() Status {
	_, version := c.host.Served()
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{
		Running:      c.running,
		Store:        c.store.Stats(),
		DriftMedian:  medianOf(c.window),
		DriftN:       len(c.window),
		Runs:         c.runs,
		Promotions:   c.promos,
		Rejections:   c.rejects,
		ModelVersion: version,
		Last:         c.last,
	}
}

// RunOnce performs one full adaptation attempt: snapshot the replay
// buffer, split train/holdout, fine-tune a LoRA clone of the serving
// model on the train split, and promote it through the gate. It returns
// ErrBusy when another attempt holds the run lock and ErrTooFewSamples
// when the buffer is under Config.MinSamples.
func (c *Controller) RunOnce() (*Outcome, error) {
	if !c.runMu.TryLock() {
		return nil, ErrBusy
	}
	defer c.runMu.Unlock()

	snap := c.store.Snapshot()
	if len(snap) < c.cfg.MinSamples {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrTooFewSamples, len(snap), c.cfg.MinSamples)
	}

	c.mu.Lock()
	c.running = true
	c.runs++
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.running = false
		c.mu.Unlock()
	}()

	// Deterministic shuffle, then carve off the holdout from the tail.
	rng := rand.New(rand.NewSource(c.cfg.Seed + int64(c.runsSoFar())))
	rng.Shuffle(len(snap), func(i, j int) { snap[i], snap[j] = snap[j], snap[i] })
	nHold := int(float64(len(snap)) * c.cfg.HoldoutFrac)
	if nHold < 1 {
		nHold = 1
	}
	train, hold := snap[:len(snap)-nHold], snap[len(snap)-nHold:]

	// The store labelled each root with its observed latency (featurize masks
	// unlabeled interior nodes, so a root-only label is valid supervision).
	trainPlans := make([]*plan.FlatPlan, len(train))
	for i, s := range train {
		trainPlans[i] = s.Plan
	}

	// Clone off the serving path: serving keeps reading the incumbent while
	// the clone's adapters are fine-tuned.
	incumbent, version := c.host.Served()
	candidate := incumbent.Clone()
	if !candidate.LoRAEnabled() {
		candidate.EnableLoRA()
	}
	candidate.Hooks = c.Hooks
	t0 := time.Now()
	candidate.FineTuneLoRAFlat(trainPlans, c.cfg.LR, c.cfg.Epochs)
	trainMS := float64(time.Since(t0)) / float64(time.Millisecond)

	before := holdoutSummary(incumbent, hold)
	after := holdoutSummary(candidate, hold)

	out := &Outcome{
		When:         time.Now().UTC().Format(time.RFC3339),
		Samples:      len(snap),
		Holdout:      nHold,
		TrainMS:      trainMS,
		BeforeMedian: before.Median,
		BeforeP90:    before.P90,
		AfterMedian:  after.Median,
		AfterP90:     after.P90,
	}

	// The gate: strictly better on BOTH median and P90 by the margin, or
	// the candidate is discarded and serving never sees it.
	passMedian := after.Median < before.Median*(1-c.cfg.Gate)
	passP90 := after.P90 < before.P90*(1-c.cfg.Gate)
	if !(passMedian && passP90) {
		out.Reason = fmt.Sprintf("gate rejected: median %.3f→%.3f, p90 %.3f→%.3f (need %.1f%% better on both)",
			before.Median, after.Median, before.P90, after.P90, c.cfg.Gate*100)
		c.mu.Lock()
		c.rejects++
		c.last = out
		c.mu.Unlock()
		if c.cfg.Logger != nil {
			c.cfg.Logger.Info("adapt gate rejected candidate",
				"samples", out.Samples, "holdout", out.Holdout, "train_ms", out.TrainMS,
				"before_median", before.Median, "after_median", after.Median,
				"before_p90", before.P90, "after_p90", after.P90)
		}
		return out, nil
	}

	out.Promoted = true
	out.Reason = fmt.Sprintf("promoted: median %.3f→%.3f, p90 %.3f→%.3f",
		before.Median, after.Median, before.P90, after.P90)
	if c.cfg.ModelDir != "" {
		v, err := SaveVersion(c.cfg.ModelDir, candidate, out.Reason)
		if err != nil {
			// Persisting failed; still promote in memory but say so.
			out.Reason += "; artifact save failed: " + err.Error()
		} else {
			out.Version, version = v, v
		}
	}
	// With no artifact written the host keeps reporting the version it
	// served: the newest artifact there is to reload.
	c.host.Publish(candidate, version)

	c.mu.Lock()
	c.promos++
	c.last = out
	c.mu.Unlock()
	c.resetDrift()
	if c.cfg.Logger != nil {
		c.cfg.Logger.Info("adapt promoted candidate",
			"version", out.Version, "samples", out.Samples, "holdout", out.Holdout,
			"train_ms", out.TrainMS,
			"before_median", before.Median, "after_median", after.Median,
			"before_p90", before.P90, "after_p90", after.P90)
	}
	return out, nil
}

func (c *Controller) runsSoFar() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs
}

// resetDrift empties the drift window: it measured the model just replaced.
func (c *Controller) resetDrift() {
	c.mu.Lock()
	c.window = c.window[:0]
	c.next = 0
	c.filled = false
	c.mu.Unlock()
}

var errNoModelDir = errors.New("adapt: no model directory configured")

// Load puts artifact version v into service and returns the version it
// replaced. It is the one way a stored version is installed — start-up
// resume, an operator's or a gateway rollout's load, Rollback — and it waits
// out an attempt in flight, so the attempt's candidate cannot be published
// over the load. Version 0 is the model the host served when the controller
// was built. In order: the artifact is read and its checksum verified, the
// host may refuse it, the manifest's current pointer moves to v (a restart
// resumes what was being served), the host publishes, and the drift window
// starts over. A failure at any step leaves host and manifest as they were.
func (c *Controller) Load(v int) (previous int, err error) {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	return c.load(v)
}

func (c *Controller) load(v int) (previous int, err error) {
	dir, m := c.cfg.ModelDir, c.seed
	if v != 0 {
		if dir == "" {
			return 0, errNoModelDir
		}
		if m, err = loadVersion(dir, v); err != nil {
			return 0, err
		}
	}
	if err := c.host.Admit(m); err != nil {
		return 0, err
	}
	if dir != "" {
		if err := setCurrent(dir, v); err != nil {
			return 0, err
		}
	}
	_, previous = c.host.Served()
	c.host.Publish(m, v)
	c.resetDrift()
	if c.cfg.Logger != nil {
		c.cfg.Logger.Info("adapt loaded version", "version", v, "previous", previous)
	}
	return previous, nil
}

// Resume loads the version the manifest names as current — what a restarted
// daemon should serve — and returns it. With no model directory, no
// manifest in it yet, or a pointer that was loaded back to 0, the host keeps
// what it serves and Resume returns 0.
func (c *Controller) Resume() (int, error) {
	if c.cfg.ModelDir == "" {
		return 0, nil
	}
	man, err := ReadManifest(c.cfg.ModelDir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	if man.Current == 0 {
		return 0, nil
	}
	_, err = c.Load(man.Current)
	return man.Current, err
}

// Rollback loads the version preceding the current one and returns it.
func (c *Controller) Rollback() (int, error) {
	if c.cfg.ModelDir == "" {
		return 0, errNoModelDir
	}
	c.runMu.Lock()
	defer c.runMu.Unlock()
	prev, err := previousVersion(c.cfg.ModelDir)
	if err != nil {
		return 0, err
	}
	if _, err := c.load(prev); err != nil {
		return 0, err
	}
	return prev, nil
}

// holdoutSummary evaluates m on the holdout split, returning the summary
// of root q-errors.
func holdoutSummary(m *core.Model, hold []feedback.Sample) metrics.Summary {
	qs := make([]float64, 0, len(hold))
	var preds []float64
	for _, s := range hold {
		// Row 0 of the sub-plan forward is the root prediction, bit for bit.
		preds = m.AppendPredictSubPlansFlat(preds[:0], s.Plan)
		if est := preds[0]; est > 0 && s.ActualMS > 0 {
			qs = append(qs, metrics.QError(est, s.ActualMS))
		}
	}
	return metrics.Summarize(qs)
}
