// Package tenant serves one shared frozen encoder to N databases: a
// registry of per-tenant LoRA adapter sets over a single base model.
//
// DACE's across-databases story (Eq. 8) fine-tunes only the MLP head per
// database, so the per-database serving state is an AdapterSet — a few
// low-rank factor pairs, not a model. The registry keeps ONE base model
// (frozen at construction) and, per tenant, an immutable State snapshot in
// an atomic.Pointer: {adapter view, generation, cache salt, artifact
// version}. Resolve on the predict hot path is a lock-free map load plus a
// pointer load — 0 allocs — and adapter hot-swaps publish a fresh State
// without ever stalling in-flight predictions.
//
// Domain separation: every State carries a cache salt derived from
// (tenant ID, generation) by servecache.DomainSalt — the function the
// serving layer uses for the base model's own domain, under the empty ID no
// tenant can register. The serving layer XORs the salt into its body- and
// fingerprint-cache keys, so tenant A's entries can never answer tenant B,
// and a hot-swap (generation bump) — a tenant's or the base model's —
// orphans exactly the swapped domain's stale entries: no cache is ever
// flushed, no other tenant disturbed.
//
// Adaptation reuses internal/adapt per tenant: each tenant owns a replay
// store and a Controller whose ModelDir is <dir>/<id>, but no tenant runs
// its own background loop. Instead the registry runs one bounded worker
// pool; feedback enqueues a dedup'd fine-tune job once a tenant has enough
// fresh samples. Promotion stays q-error-gated and writes the tenant's own
// versioned artifact dir (rollback included). Candidates are clones of the
// tenant's view, so they train only their adapter copies (the base is
// frozen) — yet artifacts remain full models, loadable stand-alone.
package tenant

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"dace/internal/adapt"
	"dace/internal/core"
	"dace/internal/feedback"
	"dace/internal/plan"
	"dace/internal/servecache"
	"dace/internal/telemetry"
	"dace/internal/wire"
)

// Config tunes the registry. Zero values get sensible defaults.
type Config struct {
	// Dir is the tenants root: each tenant's versioned artifacts live in
	// Dir/<id>/ (manifest.json + v<N>.dace), the internal/adapt layout.
	// Empty disables persistence: promotions serve but do not survive.
	Dir string

	// Fine-tune gating, passed through to each tenant's adapt.Controller.
	MinSamples int     // samples before a fine-tune may run (default 256)
	Gate       float64 // relative median+P90 improvement to promote (default 0.02)
	LR         float64 // fine-tune learning rate (default 2e-3)
	Epochs     int     // fine-tune epochs (default 12)
	StoreCap   int     // per-tenant replay store capacity (default 4096)

	// Workers bounds fine-tune concurrency across ALL tenants (default 1):
	// one pool, so a thousand drifting tenants queue instead of forking a
	// thousand simultaneous training runs.
	Workers int

	Seed    int64
	Metrics *telemetry.Registry // optional; per-tenant label sets
	Logger  *slog.Logger        // optional
}

func (c Config) withDefaults() Config {
	if c.MinSamples <= 0 {
		c.MinSamples = 256
	}
	if c.Gate <= 0 {
		c.Gate = 0.02
	}
	if c.LR <= 0 {
		c.LR = 2e-3
	}
	if c.Epochs <= 0 {
		c.Epochs = 12
	}
	if c.StoreCap <= 0 {
		c.StoreCap = 4096
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// State is one tenant's immutable serving snapshot. A hot-swap publishes a
// new State; readers that loaded the old one keep predicting against the
// old view untouched.
type State struct {
	View     *core.Model      // base.WithAdapters(Adapters), or the raw base at generation 0
	Adapters *core.AdapterSet // nil until an adapter is loaded or promoted
	Gen      uint64           // bumped on every adapter swap
	Version  int              // artifact version being served (0 = none)
	Salt     servecache.Key   // cache-domain salt for (tenant, Gen)
}

// Tenant is one database's serving and adaptation state.
type Tenant struct {
	id    string
	state atomic.Pointer[State]

	store *feedback.Store
	ctl   *adapt.Controller

	pubMu sync.Mutex // serializes publishes; readers never take it

	queued   atomic.Bool   // a fine-tune job is enqueued or running
	fresh    atomic.Int64  // accepted samples since the last fine-tune attempt
	requests atomic.Uint64 // hot-path resolves, sampled by telemetry
	feedback atomic.Uint64
}

// ID returns the tenant identifier.
func (t *Tenant) ID() string { return t.id }

// State returns the current immutable serving snapshot.
func (t *Tenant) State() *State { return t.state.Load() }

// publish installs a new snapshot with a bumped generation (and therefore
// a fresh cache salt).
func (t *Tenant) publish(view *core.Model, as *core.AdapterSet, version int) {
	t.pubMu.Lock()
	defer t.pubMu.Unlock()
	gen := t.state.Load().Gen + 1
	t.state.Store(&State{View: view, Adapters: as, Gen: gen, Version: version, Salt: servecache.DomainSalt(t.id, gen)})
}

// Info is one tenant's row in GET /tenants and `dace tenants`.
type Info struct {
	ID         string         `json:"id"`
	Version    int            `json:"adapter_version"` // serving artifact (0 = base only)
	Gen        uint64         `json:"generation"`
	Adapted    bool           `json:"adapted"` // serving an adapter set, not the raw base
	Backlog    int            `json:"feedback_backlog"`
	Store      feedback.Stats `json:"store"`
	Requests   uint64         `json:"requests"`
	Feedback   uint64         `json:"feedback"`
	Runs       int            `json:"runs"`
	Promotions int            `json:"promotions"`
}

// Registry serves all tenants from one frozen base model.
type Registry struct {
	base *core.Model
	cfg  Config
	log  *slog.Logger

	mu      sync.Mutex // guards map writes (copy-on-write)
	tenants atomic.Pointer[map[string]*Tenant]

	jobs chan *Tenant
	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a registry over base. The base is frozen in place — from here
// on it is the shared read-only encoder; fine-tune candidates clone views
// of it and train only adapters.
func New(base *core.Model, cfg Config) *Registry {
	base.Freeze()
	r := &Registry{
		base: base,
		cfg:  cfg.withDefaults(),
		jobs: make(chan *Tenant, 1024),
		stop: make(chan struct{}),
	}
	r.log = r.cfg.Logger
	empty := make(map[string]*Tenant)
	r.tenants.Store(&empty)
	for i := 0; i < r.cfg.Workers; i++ {
		r.wg.Add(1)
		go r.worker()
	}
	return r
}

// Base returns the shared frozen model.
func (r *Registry) Base() *core.Model { return r.base }

// Stop shuts the fine-tune worker pool down and waits for in-flight runs.
func (r *Registry) Stop() {
	close(r.stop)
	r.wg.Wait()
}

// Len returns the number of registered tenants.
func (r *Registry) Len() int { return len(*r.tenants.Load()) }

// Get returns the tenant by ID without touching its request counter.
func (r *Registry) Get(id string) (*Tenant, bool) {
	t, ok := (*r.tenants.Load())[id]
	return t, ok
}

// Resolve is the hot-path lookup: the tenant's current adapter view and
// cache salt. Lock-free, 0 allocs. ok is false for unknown tenants.
func (r *Registry) Resolve(id string) (m *core.Model, salt servecache.Key, ok bool) {
	t, ok := (*r.tenants.Load())[id]
	if !ok {
		return nil, servecache.Key{}, false
	}
	t.requests.Add(1)
	s := t.state.Load()
	return s.View, s.Salt, true
}

// Register creates a tenant (idempotently) serving the raw base model at
// generation 1. Returns the tenant and whether it was newly created.
func (r *Registry) Register(id string) (*Tenant, bool, error) {
	if err := wire.ValidateTenantID(id); err != nil {
		return nil, false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.tenants.Load()
	if t, ok := old[id]; ok {
		return t, false, nil
	}
	t := &Tenant{
		id:    id,
		store: feedback.NewStore(r.cfg.StoreCap, r.cfg.Seed),
	}
	t.state.Store(&State{View: r.base, Gen: 1, Salt: servecache.DomainSalt(id, 1)})
	t.ctl = adapt.New(tenantHost{r: r, t: t}, t.store, nil, adapt.Config{
		MinSamples: r.cfg.MinSamples,
		Gate:       r.cfg.Gate,
		LR:         r.cfg.LR,
		Epochs:     r.cfg.Epochs,
		ModelDir:   r.tenantDir(id),
		Seed:       r.cfg.Seed,
		Logger:     r.log.With("tenant", id),
	})
	r.registerMetrics(t)

	next := make(map[string]*Tenant, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = t
	r.tenants.Store(&next)
	return t, true, nil
}

// Create registers the tenant (idempotently) and reports whether it was
// newly created — the POST /tenants/{id} surface.
func (r *Registry) Create(id string) (bool, error) {
	_, created, err := r.Register(id)
	return created, err
}

// Describe returns one tenant's Info (GET /tenants/{id}).
func (r *Registry) Describe(id string) (any, bool) {
	t, ok := r.Get(id)
	if !ok {
		return nil, false
	}
	return r.info(t), true
}

// tenantDir is the tenant's artifact directory ("" when persistence is
// off). wire.ValidateTenantID has already rejected every path-traversal
// shape, so the join cannot escape Dir.
func (r *Registry) tenantDir(id string) string {
	if r.cfg.Dir == "" {
		return ""
	}
	return filepath.Join(r.cfg.Dir, id)
}

// LoadDir scans the tenants root and registers every subdirectory holding
// an artifact manifest, serving each tenant's current version. Dirs that
// fail tenant-ID validation or whose artifacts lack adapters are skipped
// with a log line, not fatal: one corrupt tenant must not stop the fleet.
func (r *Registry) LoadDir() (int, error) {
	if r.cfg.Dir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	loaded := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		if err := wire.ValidateTenantID(id); err != nil {
			r.log.Warn("tenant dir skipped", "dir", id, "err", err)
			continue
		}
		m, v, err := adapt.LoadCurrent(r.tenantDir(id))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // no manifest yet: not a tenant dir
			}
			r.log.Warn("tenant artifact unreadable", "tenant", id, "err", err)
			continue
		}
		t, _, err := r.Register(id)
		if err != nil {
			return loaded, err
		}
		if err := r.serveArtifact(t, m, v); err != nil {
			r.log.Warn("tenant artifact rejected", "tenant", id, "version", v, "err", err)
			continue
		}
		loaded++
	}
	return loaded, nil
}

// serveArtifact publishes artifact model m (version v) as t's adapter set
// over the shared base.
func (r *Registry) serveArtifact(t *Tenant, m *core.Model, v int) error {
	as := m.Adapters()
	if as == nil {
		return fmt.Errorf("tenant %s: artifact v%d carries no adapters", t.id, v)
	}
	if err := as.CompatibleWith(r.base); err != nil {
		return err
	}
	t.publish(r.base.WithAdapters(as), as, v)
	return nil
}

// LoadAdapter loads artifact version v from the tenant's dir and serves
// it, registering the tenant first if needed. Returns the served version.
func (r *Registry) LoadAdapter(id string, v int) (int, error) {
	t, _, err := r.Register(id)
	if err != nil {
		return 0, err
	}
	dir := r.tenantDir(id)
	if dir == "" {
		return 0, errors.New("tenant: no tenants dir configured")
	}
	m, err := adapt.LoadVersion(dir, v)
	if err != nil {
		return 0, err
	}
	if err := r.serveArtifact(t, m, v); err != nil {
		return 0, err
	}
	return v, nil
}

// ServeAdapters publishes as over the shared base for tenant id,
// registering the tenant first if needed — the in-memory counterpart of
// LoadAdapter, for callers that already hold an adapter set.
func (r *Registry) ServeAdapters(id string, as *core.AdapterSet) error {
	t, _, err := r.Register(id)
	if err != nil {
		return err
	}
	if err := as.CompatibleWith(r.base); err != nil {
		return err
	}
	t.publish(r.base.WithAdapters(as), as, t.state.Load().Version)
	return nil
}

// Observe routes one feedback sample to its tenant's replay store and
// drift window, and enqueues a fine-tune once the tenant has both enough
// resident samples and enough fresh ones since its last attempt. Returns
// false for unknown tenants.
func (r *Registry) Observe(id string, p *plan.Plan, actualMS, predictedMS float64) bool {
	t, ok := (*r.tenants.Load())[id]
	if !ok {
		return false
	}
	t.feedback.Add(1)
	t.ctl.Observe(p, actualMS, predictedMS)
	t.fresh.Add(1)
	if t.store.Len() >= r.cfg.MinSamples && t.fresh.Load() >= r.freshFloor() &&
		t.queued.CompareAndSwap(false, true) {
		select {
		case r.jobs <- t:
		default:
			t.queued.Store(false) // queue full; a later sample retries
		}
	}
	return true
}

// freshFloor is how many new samples a tenant must accumulate between
// fine-tune attempts, so a rejected candidate doesn't retrain on an almost
// identical snapshot every request.
func (r *Registry) freshFloor() int64 {
	f := int64(r.cfg.MinSamples / 4)
	if f < 1 {
		f = 1
	}
	return f
}

// worker drains the shared fine-tune queue.
func (r *Registry) worker() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case t := <-r.jobs:
			r.runOnce(t)
		}
	}
}

// runOnce executes one gated fine-tune attempt for t.
func (r *Registry) runOnce(t *Tenant) (*adapt.Outcome, error) {
	t.fresh.Store(0)
	defer t.queued.Store(false)
	out, err := t.ctl.RunOnce()
	switch {
	case err == nil:
		r.log.Info("tenant adapt", "tenant", t.id, "promoted", out.Promoted,
			"version", out.Version, "reason", out.Reason)
	case errors.Is(err, adapt.ErrTooFewSamples) || errors.Is(err, adapt.ErrBusy):
		// Expected churn; the next feedback batch re-enqueues.
	default:
		r.log.Warn("tenant adapt failed", "tenant", t.id, "err", err)
	}
	return out, err
}

// Trigger runs a synchronous fine-tune attempt for the tenant (the
// per-tenant POST /tenants/{id}/adapt/trigger handler).
func (r *Registry) Trigger(id string) (any, error) {
	t, ok := r.Get(id)
	if !ok {
		return nil, ErrUnknownTenant
	}
	if !t.queued.CompareAndSwap(false, true) {
		return nil, adapt.ErrBusy
	}
	return r.runOnce(t)
}

// Status returns the tenant's adapt.Status (per-tenant GET
// /tenants/{id}/adapt/status).
func (r *Registry) Status(id string) (any, bool) {
	t, ok := r.Get(id)
	if !ok {
		return nil, false
	}
	return t.ctl.Status(), true
}

// Rollback reverts the tenant to its previous artifact version and serves
// it. Returns the version now serving.
func (r *Registry) Rollback(id string) (int, error) {
	t, ok := r.Get(id)
	if !ok {
		return 0, ErrUnknownTenant
	}
	return t.ctl.Rollback()
}

// ErrUnknownTenant marks requests naming a tenant the registry has never
// seen. The serving layer maps it to 404.
var ErrUnknownTenant = errors.New("tenant: unknown tenant")

// Versions reports each tenant's serving artifact version — the /healthz
// per-tenant map.
func (r *Registry) Versions() map[string]int {
	ts := *r.tenants.Load()
	out := make(map[string]int, len(ts))
	for id, t := range ts {
		out[id] = t.state.Load().Version
	}
	return out
}

// List returns every tenant's Info, sorted by ID (GET /tenants).
func (r *Registry) List() any {
	ts := *r.tenants.Load()
	out := make([]Info, 0, len(ts))
	for _, t := range ts {
		out = append(out, r.info(t))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (r *Registry) info(t *Tenant) Info {
	s := t.state.Load()
	st := t.ctl.StatusNow()
	return Info{
		ID:         t.id,
		Version:    s.Version,
		Gen:        s.Gen,
		Adapted:    s.Adapters != nil,
		Backlog:    t.store.Len(),
		Store:      t.store.Stats(),
		Requests:   t.requests.Load(),
		Feedback:   t.feedback.Load(),
		Runs:       st.Runs,
		Promotions: st.Promotions,
	}
}

// registerMetrics installs the tenant's fixed-label series: scrape-time
// sampled, so the hot path pays only its own atomic increments.
func (r *Registry) registerMetrics(t *Tenant) {
	reg := r.cfg.Metrics
	if reg == nil {
		return
	}
	l := telemetry.Label{Name: "tenant", Value: t.id}
	reg.CounterFunc("dace_tenant_requests_total",
		"Predictions resolved through this tenant's adapter view.",
		t.requests.Load, l)
	reg.CounterFunc("dace_tenant_feedback_total",
		"Feedback samples routed to this tenant.",
		t.feedback.Load, l)
	reg.GaugeFunc("dace_tenant_feedback_backlog",
		"Resident replay-store samples awaiting fine-tune.",
		func() float64 { return float64(t.store.Len()) }, l)
	reg.GaugeFunc("dace_tenant_adapter_version",
		"Artifact version serving this tenant (0 = shared base only).",
		func() float64 { return float64(t.state.Load().Version) }, l)
	reg.GaugeFunc("dace_tenant_adapter_generation",
		"Adapter hot-swap generation for this tenant.",
		func() float64 { return float64(t.state.Load().Gen) }, l)
}

// tenantHost adapts one tenant to adapt.Host. Served hands the controller
// the tenant's current adapter view (its Clone trains adapters only, since
// the base is frozen) and artifact version; Publish detaches the promoted
// candidate's adapter set and publishes it over the shared base — the
// candidate's own encoder copy becomes garbage immediately.
type tenantHost struct {
	r *Registry
	t *Tenant
}

func (h tenantHost) Served() (*core.Model, int) {
	s := h.t.state.Load()
	return s.View, s.Version
}

func (h tenantHost) Publish(m *core.Model, version int) {
	as := m.Adapters()
	if as == nil {
		// A candidate without adapters cannot ride the shared base; serve
		// it whole. Reachable only via hand-built artifacts.
		h.t.publish(m, nil, version)
		return
	}
	h.t.publish(h.r.base.WithAdapters(as), as, version)
}
