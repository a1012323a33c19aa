// Package tenant is the table of adaptation domains a server answers
// through: tenant zero, ID "" (which wire.ValidateTenantID refuses), is the
// model the server was handed — DACE's base model is the database with no
// adapters (Eq. 8) — and, once the tenants part is built, each named tenant
// is a LoRA adapter set over that model, frozen as the shared encoder.
//
// Every tenant keeps an immutable State snapshot in an atomic.Pointer:
// {view, generation, cache salt, artifact version}. Reading it on the
// predict hot path is one pointer load, 0 allocs, and a publish installs a
// fresh State without stalling in-flight predictions. The salt is
// servecache.DomainSalt(id, generation); the serving layer folds it into
// every cache key (State.Key), so one tenant's entries never answer another
// and a publish orphans exactly the swapped domain's entries — no cache is
// flushed, no other tenant disturbed.
//
// A Tenant embeds the adapt.Controller that observes, fine-tunes, loads and
// rolls it back, and is the adapt.Host that controller publishes to;
// background attempts run on the process's one adapt.Pool. What differs
// between tenant zero and a named tenant is data fixed at construction: zero
// admits any model and serves it as it is, under Config.Adapt verbatim; a
// named tenant admits only adapters that fit the shared base, from
// <Dir>/<id>, with no timer and no drift threshold. Its candidates clone its
// view, so they train only adapter copies — yet artifacts remain full
// models, loadable stand-alone.
package tenant

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"dace/internal/adapt"
	"dace/internal/core"
	"dace/internal/feedback"
	"dace/internal/servecache"
	"dace/internal/telemetry"
	"dace/internal/wire"
)

// Config tunes the registry. Zero values get sensible defaults.
type Config struct {
	// Dir is the tenants root: each named tenant's versioned artifacts live
	// in Dir/<id>/ (manifest.json + v<N>.dace), the internal/adapt layout.
	// Empty keeps named tenants' promotions in memory only.
	Dir string

	// Adapt configures tenant zero's adapt.Controller as given. A named
	// tenant's is the same without Interval and DriftThreshold — a timer per
	// tenant would be a goroutine per tenant — with ModelDir Dir/<id> and a
	// logger derived from Logger. Adapt.Seed also seeds named tenants'
	// replay stores (default 1).
	Adapt adapt.Config

	StoreCap int // replay store capacity of a named tenant, and of a nil-store zero (default 4096)

	// Pool runs every tenant's background fine-tunes, so a thousand drifting
	// tenants queue instead of training at once. Nil leaves tenants adapting
	// only on an explicit RunOnce.
	Pool *adapt.Pool

	Metrics *telemetry.Registry // optional; zero's adaptation series, named tenants' label sets
	Logger  *slog.Logger        // optional; named tenants' controllers log here
}

func (c Config) withDefaults() Config {
	if c.StoreCap <= 0 {
		c.StoreCap = 4096
	}
	if c.Adapt.Seed == 0 {
		c.Adapt.Seed = 1
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// State is one tenant's immutable serving snapshot. A publish installs a new
// State; readers that loaded the old one keep predicting against the old
// view untouched.
type State struct {
	View     *core.Model      // the model that answers: a named tenant's base.WithAdapters(Adapters)
	Adapters *core.AdapterSet // a named tenant's adapter set; nil until one is loaded or promoted, and for zero
	Gen      uint64           // bumped on every publish
	Version  int              // artifact version being served (0 = none, or zero's seed)
	Salt     servecache.Key   // cache-domain salt for (tenant, Gen)
}

// Key folds the snapshot's cache-domain salt into a content key.
func (s *State) Key(k servecache.Key) servecache.Key {
	return servecache.Key{Hi: k.Hi ^ s.Salt.Hi, Lo: k.Lo ^ s.Salt.Lo}
}

// Tenant is one domain's serving and adaptation state. The embedded
// controller — Observe, StatusNow, RunOnce, Load, Rollback, Resume — adapts
// the tenant, and the tenant is the adapt.Host it publishes to.
type Tenant struct {
	*adapt.Controller
	id    string
	base  *core.Model // the shared frozen base a named tenant's adapters run over; nil for zero
	state atomic.Pointer[State]
	store *feedback.Store

	pubMu sync.Mutex // serializes publishes; readers never take it

	requests atomic.Uint64 // named-tenant resolves, sampled by telemetry
}

// newTenant builds a tenant serving view at generation 1 and its controller.
func newTenant(id string, base, view *core.Model, store *feedback.Store, log *feedback.Log, cfg adapt.Config) *Tenant {
	t := &Tenant{id: id, base: base, store: store}
	t.state.Store(&State{View: view, Gen: 1, Salt: servecache.DomainSalt(id, 1)})
	t.Controller = adapt.New(t, store, log, cfg)
	return t
}

// State returns the current immutable serving snapshot.
func (t *Tenant) State() *State { return t.state.Load() }

// Resolve is State counted as one of the tenant's requests: the read a
// request that named the tenant makes. Lock-free, 0 allocs.
func (t *Tenant) Resolve() *State {
	t.requests.Add(1)
	return t.state.Load()
}

// Served satisfies adapt.Host: the view and its artifact version, read from
// one snapshot.
func (t *Tenant) Served() (*core.Model, int) {
	s := t.state.Load()
	return s.View, s.Version
}

// Admit satisfies adapt.Host. It is the one artifact rule: tenant zero
// serves any model it is handed; a named tenant serves adapters that fit the
// shared base, never a model of its own.
func (t *Tenant) Admit(m *core.Model) error {
	if t.base == nil {
		return nil
	}
	as := m.Adapters()
	if as == nil {
		return fmt.Errorf("tenant %s: artifact carries no adapters", t.id)
	}
	return as.CompatibleWith(t.base)
}

// Publish satisfies adapt.Host: m is served at artifact version v under a
// new generation and cache salt — by tenant zero as it is, by a named tenant
// as m's adapter set over the shared base (m's own encoder copy is dropped).
// Fine-tuning mutates a model in place, so publish it again after.
func (t *Tenant) Publish(m *core.Model, v int) {
	if t.base == nil {
		t.publish(m, nil, v)
		return
	}
	as := m.Adapters()
	t.publish(t.base.WithAdapters(as), as, v)
}

func (t *Tenant) publish(view *core.Model, as *core.AdapterSet, version int) {
	t.pubMu.Lock()
	defer t.pubMu.Unlock()
	gen := t.state.Load().Gen + 1
	t.state.Store(&State{View: view, Adapters: as, Gen: gen, Version: version, Salt: servecache.DomainSalt(t.id, gen)})
}

// feedback counts the samples observed: each valid one is a new plan to the
// store (offered) or a refresh of a resident one.
func (t *Tenant) feedback() uint64 {
	st := t.store.Stats()
	return uint64(st.Offered) + st.Updated
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
		Feedback:   t.feedback(),
		Runs:       st.Runs,
		Promotions: st.Promotions,
	}
}

// Registry is the table of tenants: zero, always resident, and the named
// tenants over one frozen base.
type Registry struct {
	zero *Tenant
	base *core.Model // the shared frozen base; nil until EnableTenants
	cfg  Config

	mu      sync.Mutex // guards map writes (copy-on-write)
	tenants atomic.Pointer[map[string]*Tenant]
}

// New builds a registry holding tenant zero alone, serving m and adapting
// from store (nil: one of cfg.StoreCap), mirrored to log when log is not nil.
// m is not modified until EnableTenants.
func New(m *core.Model, store *feedback.Store, log *feedback.Log, cfg Config) *Registry {
	r := &Registry{cfg: cfg.withDefaults()}
	if store == nil {
		store = feedback.NewStore(r.cfg.StoreCap, r.cfg.Adapt.Seed)
	}
	r.zero = newTenant("", nil, m, store, log, cfg.Adapt)
	r.zero.EnableMetrics(cfg.Metrics) // before the pool can run an attempt
	cfg.Pool.Attach(r.zero.Controller)
	empty := make(map[string]*Tenant)
	r.tenants.Store(&empty)
	return r
}

// Zero returns tenant zero, which answers every request naming no tenant.
func (r *Registry) Zero() *Tenant { return r.zero }

// EnableTenants builds the tenants part, once, before serving: what tenant
// zero serves now is frozen in place as the shared read-only base, and every
// directory under Config.Dir holding an artifact manifest is registered at
// its current version and counted. A directory whose name or artifact is
// refused is skipped with a log line: one corrupt tenant must not stop the
// fleet.
func (r *Registry) EnableTenants() (int, error) {
	base, _ := r.zero.Served()
	if base == nil {
		return 0, errors.New("tenant: no model to share")
	}
	base.Freeze()
	r.base = base
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) { // an empty Dir included
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
			r.cfg.Logger.Warn("tenant dir skipped", "dir", e.Name(), "err", err)
		case created:
			loaded++
		}
	}
	return loaded, nil
}

// errNoArtifacts marks a directory under the tenants root that holds no
// artifact to resume: not a tenant's.
var errNoArtifacts = errors.New("tenant: no artifact version to resume")

// Base returns the shared frozen model, nil until EnableTenants.
func (r *Registry) Base() *core.Model { return r.base }

// Len returns the number of named tenants.
func (r *Registry) Len() int { return len(*r.tenants.Load()) }

// Get returns the named tenant without touching its request counter.
func (r *Registry) Get(id string) (*Tenant, bool) {
	t, ok := (*r.tenants.Load())[id]
	return t, ok
}

// Register creates a named tenant (idempotently) serving the raw base model
// at generation 1. Returns the tenant and whether it was newly created.
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
	if r.base == nil {
		return nil, false, errors.New("tenant: tenants are not enabled")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.tenants.Load()
	if t, ok := old[id]; ok {
		return t, false, nil
	}
	acfg := r.cfg.Adapt
	acfg.Interval, acfg.DriftThreshold = 0, 0
	acfg.ModelDir, acfg.Logger = "", r.cfg.Logger.With("tenant", id)
	if r.cfg.Dir != "" {
		// wire.ValidateTenantID has rejected every path-traversal shape.
		acfg.ModelDir = filepath.Join(r.cfg.Dir, id)
	}
	t := newTenant(id, r.base, r.base, feedback.NewStore(r.cfg.StoreCap, r.cfg.Adapt.Seed), nil, acfg)
	r.cfg.Pool.Attach(t.Controller)
	if start != nil {
		if err := start(t); err != nil {
			return nil, false, err
		}
	}
	r.registerMetrics(t)

	next := maps.Clone(old)
	next[id] = t
	r.tenants.Store(&next)
	return t, true, nil
}

// Load serves artifact version v for named tenant id and returns the
// tenant: its own Load, which a new id must pass to be registered at all — a
// failed load leaves no tenant behind.
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

// Versions reports each named tenant's serving artifact version — the
// /healthz per-tenant map.
func (r *Registry) Versions() map[string]int {
	ts := *r.tenants.Load()
	out := make(map[string]int, len(ts))
	for id, t := range ts {
		out[id] = t.state.Load().Version
	}
	return out
}

// List returns every named tenant's Info, sorted by ID (GET /tenants).
func (r *Registry) List() []Info {
	ts := *r.tenants.Load()
	out := make([]Info, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.Info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// registerMetrics installs a named tenant's fixed-label series: scrape-time
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
		t.feedback, l)
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
