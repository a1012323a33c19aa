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
// Adaptation is internal/adapt's, per tenant: a Tenant embeds an
// adapt.Controller over its own replay store and artifact dir <dir>/<id>, so
// a tenant is observed, fine-tuned, loaded and rolled back by the code that
// does those things for the base model, and this package schedules nothing —
// background attempts run on the process's one adapt.Pool (Config.Pool),
// enqueued once a tenant has enough fresh samples. What is a tenant's own is
// the host the controller publishes to: it admits only artifacts whose
// adapters fit the shared base and serves their adapter set over it.
// Candidates are clones of the tenant's view, so they train only their
// adapter copies (the base is frozen) — yet artifacts remain full models,
// loadable stand-alone.
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

	// Pool runs the tenants' background fine-tunes — the process's one pool,
	// shared with the base model's controller, so a thousand drifting
	// tenants queue instead of forking a thousand simultaneous training
	// runs. Nil leaves tenants adapting only on an explicit RunOnce.
	Pool *adapt.Pool

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

// Tenant is one database's serving and adaptation state. The embedded
// controller is its adaptation domain — StatusNow, RunOnce, Load, Rollback
// are the controller's — publishing to this tenant's snapshot.
type Tenant struct {
	*adapt.Controller
	id    string
	r     *Registry
	state atomic.Pointer[State]
	store *feedback.Store

	pubMu sync.Mutex // serializes publishes; readers never take it

	fresh    atomic.Int64  // samples since a background fine-tune was last enqueued
	requests atomic.Uint64 // hot-path resolves, sampled by telemetry
	feedback atomic.Uint64
}

// ID returns the tenant identifier.
func (t *Tenant) ID() string { return t.id }

// State returns the current immutable serving snapshot.
func (t *Tenant) State() *State { return t.state.Load() }

// Resolve is the hot-path read: the tenant's current adapter view and cache
// salt. Lock-free, 0 allocs.
func (t *Tenant) Resolve() (*core.Model, servecache.Key) {
	t.requests.Add(1)
	s := t.state.Load()
	return s.View, s.Salt
}

// publish installs a new snapshot with a bumped generation (and therefore
// a fresh cache salt).
func (t *Tenant) publish(view *core.Model, as *core.AdapterSet, version int) {
	t.pubMu.Lock()
	defer t.pubMu.Unlock()
	gen := t.state.Load().Gen + 1
	t.state.Store(&State{View: view, Adapters: as, Gen: gen, Version: version, Salt: servecache.DomainSalt(t.id, gen)})
}

// Observe is the controller's — the sample lands in the tenant's replay
// store and drift window — plus the tenant's counters and its trigger
// policy: a background fine-tune is enqueued once the tenant has both enough
// resident samples and enough fresh ones since the last was, so a rejected
// candidate doesn't retrain on an almost identical snapshot every request.
func (t *Tenant) Observe(f *plan.FlatPlan, actualMS, predictedMS float64) {
	t.feedback.Add(1)
	t.Controller.Observe(f, actualMS, predictedMS)
	need := t.r.cfg.MinSamples
	if t.fresh.Add(1) >= int64(max(need/4, 1)) && t.store.Len() >= need && t.Enqueue() {
		t.fresh.Store(0)
	}
}

// RunOnce is the controller's synchronous attempt; it counts as the
// tenant's latest, so the fresh-sample floor starts over.
func (t *Tenant) RunOnce() (*adapt.Outcome, error) {
	t.fresh.Store(0)
	return t.Controller.RunOnce()
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
}

// New builds a registry over base. The base is frozen in place — from here
// on it is the shared read-only encoder; fine-tune candidates clone views
// of it and train only adapters.
func New(base *core.Model, cfg Config) *Registry {
	base.Freeze()
	r := &Registry{base: base, cfg: cfg.withDefaults()}
	r.log = r.cfg.Logger
	empty := make(map[string]*Tenant)
	r.tenants.Store(&empty)
	return r
}

// Base returns the shared frozen model.
func (r *Registry) Base() *core.Model { return r.base }

// Len returns the number of registered tenants.
func (r *Registry) Len() int { return len(*r.tenants.Load()) }

// Get returns the tenant by ID without touching its request counter.
func (r *Registry) Get(id string) (*Tenant, bool) {
	t, ok := (*r.tenants.Load())[id]
	return t, ok
}

// Resolve is Get plus the tenant's hot-path read. ok is false for unknown
// tenants.
func (r *Registry) Resolve(id string) (m *core.Model, salt servecache.Key, ok bool) {
	t, ok := r.Get(id)
	if !ok {
		return nil, servecache.Key{}, false
	}
	m, salt = t.Resolve()
	return m, salt, true
}

// Register creates a tenant (idempotently) serving the raw base model at
// generation 1. Returns the tenant and whether it was newly created.
func (r *Registry) Register(id string) (*Tenant, bool, error) {
	return r.register(id, nil)
}

// register is Register with a start step: a new tenant joins the registry
// only if start, run on it first, succeeds. An existing tenant is returned
// as it is.
func (r *Registry) register(id string, start func(*Tenant) error) (*Tenant, bool, error) {
	if err := wire.ValidateTenantID(id); err != nil {
		return nil, false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.tenants.Load()
	if t, ok := old[id]; ok {
		return t, false, nil
	}
	t := &Tenant{id: id, r: r, store: feedback.NewStore(r.cfg.StoreCap, r.cfg.Seed)}
	t.state.Store(&State{View: r.base, Gen: 1, Salt: servecache.DomainSalt(id, 1)})
	t.Controller = adapt.New(tenantHost{t}, t.store, nil, adapt.Config{
		MinSamples: r.cfg.MinSamples,
		Gate:       r.cfg.Gate,
		LR:         r.cfg.LR,
		Epochs:     r.cfg.Epochs,
		ModelDir:   r.tenantDir(id),
		Seed:       r.cfg.Seed,
		Logger:     r.log.With("tenant", id),
	})
	if r.cfg.Pool != nil {
		r.cfg.Pool.Attach(t.Controller)
	}
	if start != nil {
		if err := start(t); err != nil {
			return nil, false, err
		}
	}
	r.registerMetrics(t)

	next := make(map[string]*Tenant, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = t
	r.tenants.Store(&next)
	return t, true, nil
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

// errNoArtifacts marks a directory under the tenants root that holds no
// artifact to resume: not a tenant's.
var errNoArtifacts = errors.New("tenant: no artifact version to resume")

// LoadDir scans the tenants root and registers every subdirectory holding
// an artifact manifest, serving each tenant's current version. Dirs that
// fail tenant-ID validation or whose artifact cannot be loaded — unreadable,
// or refused because its adapters do not fit the base — are skipped with a
// log line, not registered and not fatal: one corrupt tenant must not stop
// the fleet.
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
		_, created, err := r.register(e.Name(), func(t *Tenant) error {
			v, err := t.Resume()
			if err == nil && v == 0 {
				err = errNoArtifacts
			}
			return err
		})
		switch {
		case errors.Is(err, errNoArtifacts):
		case err != nil:
			r.log.Warn("tenant dir skipped", "dir", e.Name(), "err", err)
		case created:
			loaded++
		}
	}
	return loaded, nil
}

// Load serves artifact version v for tenant id and returns the tenant: its
// own Load, which a new id must pass to be registered at all — a failed
// load leaves no tenant behind.
func (r *Registry) Load(id string, v int) (*Tenant, error) {
	load := func(t *Tenant) error {
		_, err := t.Load(v)
		return err
	}
	t, created, err := r.register(id, load)
	if err == nil && !created {
		err = load(t)
	}
	return t, err
}

// ServeAdapters publishes as over the shared base for tenant id,
// registering the tenant first if needed — for callers that hold an adapter
// set in memory rather than an artifact version to Load.
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
func (r *Registry) List() []Info {
	ts := *r.tenants.Load()
	out := make([]Info, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.Info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Info snapshots the tenant's row (GET /tenants/{id}).
func (t *Tenant) Info() Info {
	s := t.state.Load()
	st := t.StatusNow()
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
// the base is frozen) and artifact version. Admit is the one artifact rule:
// a tenant serves adapters that fit the shared base, never a model of its
// own. Publish detaches the model's adapter set and publishes it over the
// shared base — a promoted candidate's own encoder copy becomes garbage
// immediately.
type tenantHost struct{ t *Tenant }

func (h tenantHost) Served() (*core.Model, int) {
	s := h.t.state.Load()
	return s.View, s.Version
}

func (h tenantHost) Admit(m *core.Model) error {
	as := m.Adapters()
	if as == nil {
		return fmt.Errorf("tenant %s: artifact carries no adapters", h.t.id)
	}
	return as.CompatibleWith(h.t.r.base)
}

func (h tenantHost) Publish(m *core.Model, version int) {
	as := m.Adapters()
	h.t.publish(h.t.r.base.WithAdapters(as), as, version)
}
