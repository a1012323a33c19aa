package serve

import (
	"errors"
	"io/fs"
	"net/http"
	"strconv"
	"strings"

	"dace/internal/core"
	"dace/internal/plan"
	"dace/internal/servecache"
	"dace/internal/wire"
)

// The multi-tenant surface. serve deliberately does not import the tenant
// package (which would drag in adapt): the server talks to the adapter
// registry through this interface, and the daemon wires the concrete type
// in. A server with nil Tenants serves one domain: the base model's.

// TenantRegistry selects a per-tenant adapter view (one shared frozen
// encoder + that tenant's LoRA adapters) and its cache-domain salt per
// request. *tenant.Registry satisfies it.
//
// Resolve sits on the predict hot path: implementations must be lock-free
// and allocation-free. The salt must be servecache.DomainSalt(id, adapter
// generation) so the serving caches never answer across tenants or across
// an adapter hot-swap; the base domain's id is "", which no tenant can have.
type TenantRegistry interface {
	Resolve(id string) (m *core.Model, salt servecache.Key, ok bool)
	Observe(id string, p *plan.Plan, actualMS, predictedMS float64) bool
	Create(id string) (created bool, err error)
	Describe(id string) (info any, ok bool)
	List() any
	Status(id string) (status any, ok bool)
	Trigger(id string) (outcome any, err error)
	Rollback(id string) (version int, err error)
	LoadAdapter(id string, version int) (served int, err error)
	Versions() map[string]int
}

// tenantCtx is one request's serving context, resolved once at the top of
// the request: which model answers and which cache domain the answer lives
// in — a tenant's adapter view, or the base model's snapshot.
type tenantCtx struct {
	model *core.Model
	salt  servecache.Key
}

// key folds the domain's cache salt into a content key.
func (tc tenantCtx) key(k servecache.Key) servecache.Key {
	return servecache.Key{Hi: k.Hi ^ tc.salt.Hi, Lo: k.Lo ^ tc.salt.Lo}
}

// resolveTenant maps the request's tenant identity (wire.Params: the
// X-DACE-Tenant header wins over the database query param) to its serving
// context. handled=true means the response was already written (404 for an
// explicitly named unknown tenant; an implicit one falls back to the base
// model); id is non-empty only when a registered tenant resolved.
func (s *Server) resolveTenant(w http.ResponseWriter, p wire.Params) (tc tenantCtx, id string, handled bool) {
	if s.Tenants == nil || p.Tenant == "" {
		return s.cur.Load().tenantCtx, "", false
	}
	m, salt, ok := s.Tenants.Resolve(p.Tenant)
	if !ok {
		if p.TenantExplicit {
			http.Error(w, "unknown tenant: "+p.Tenant, http.StatusNotFound)
			return tenantCtx{}, "", true
		}
		return s.cur.Load().tenantCtx, "", false
	}
	return tenantCtx{model: m, salt: salt}, p.Tenant, false
}

// handleTenants routes the /tenants tree:
//
//	GET  /tenants                          all tenants (sorted Info rows)
//	POST /tenants/{id}                     register a tenant (idempotent)
//	GET  /tenants/{id}                     one tenant's Info
//	GET  /tenants/{id}/adapt/status        that tenant's adapt.Status
//	POST /tenants/{id}/adapt/trigger       synchronous gated fine-tune
//	POST /tenants/{id}/adapter/load?version=N  serve artifact version N
//	POST /tenants/{id}/adapter/rollback    revert to the previous artifact
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(r.URL.Path, "/tenants")
	path = strings.TrimPrefix(path, "/")
	if path == "" {
		if !wire.AllowOnly(w, r, http.MethodGet) {
			return
		}
		writeJSON(w, s.Tenants.List())
		return
	}
	id, rest := path, ""
	if i := strings.IndexByte(path, '/'); i >= 0 {
		id, rest = path[:i], path[i+1:]
	}

	switch rest {
	case "":
		switch r.Method {
		case http.MethodGet:
			info, ok := s.Tenants.Describe(id)
			if !ok {
				http.Error(w, "unknown tenant: "+id, http.StatusNotFound)
				return
			}
			writeJSON(w, info)
		case http.MethodPost:
			created, err := s.Tenants.Create(id)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if created {
				w.WriteHeader(http.StatusCreated)
			}
			info, _ := s.Tenants.Describe(id)
			writeJSON(w, info)
		default:
			w.Header().Set("Allow", "GET, POST")
			http.Error(w, "GET or POST required", http.StatusMethodNotAllowed)
		}

	case "adapt/status":
		if !wire.AllowOnly(w, r, http.MethodGet) {
			return
		}
		st, ok := s.Tenants.Status(id)
		if !ok {
			http.Error(w, "unknown tenant: "+id, http.StatusNotFound)
			return
		}
		writeJSON(w, st)

	case "adapt/trigger":
		if !wire.AllowOnly(w, r, http.MethodPost) {
			return
		}
		if _, ok := s.Tenants.Describe(id); !ok {
			http.Error(w, "unknown tenant: "+id, http.StatusNotFound)
			return
		}
		out, err := s.Tenants.Trigger(id)
		if err != nil {
			writeTenantError(w, err)
			return
		}
		writeJSON(w, out)

	case "adapter/load":
		if !wire.AllowOnly(w, r, http.MethodPost) {
			return
		}
		v, err := strconv.Atoi(wire.QueryParam(r.URL.RawQuery, "version"))
		if err != nil || v < 1 {
			http.Error(w, "version query parameter required (a positive integer)", http.StatusBadRequest)
			return
		}
		if _, err := s.Tenants.LoadAdapter(id, v); err != nil {
			writeTenantError(w, err)
			return
		}
		info, _ := s.Tenants.Describe(id)
		writeJSON(w, info)

	case "adapter/rollback":
		if !wire.AllowOnly(w, r, http.MethodPost) {
			return
		}
		if _, ok := s.Tenants.Describe(id); !ok {
			http.Error(w, "unknown tenant: "+id, http.StatusNotFound)
			return
		}
		if _, err := s.Tenants.Rollback(id); err != nil {
			writeTenantError(w, err)
			return
		}
		info, _ := s.Tenants.Describe(id)
		writeJSON(w, info)

	default:
		http.NotFound(w, r)
	}
}

// writeTenantError maps registry errors: contention is 409, a missing
// artifact is 404, an invalid ID is 400, anything else is the request's
// fault but well-formed (422, matching the /adapt endpoints).
func writeTenantError(w http.ResponseWriter, err error) {
	var busy interface{ Busy() bool }
	switch {
	case errors.As(err, &busy) && busy.Busy():
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, fs.ErrNotExist):
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	}
}
