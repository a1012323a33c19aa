package serve

import (
	"net/http"
	"strconv"
	"strings"

	"dace/internal/core"
	"dace/internal/servecache"
	"dace/internal/wire"
)

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
// context and its adaptation domain: a registered tenant's, else the base
// model's (nil when Server.Base is unset). handled=true means the response
// was already written (404 for an explicitly named unknown tenant; an
// implicit one falls back to the base model).
func (s *Server) resolveTenant(w http.ResponseWriter, p wire.Params) (tc tenantCtx, d Domain, handled bool) {
	if s.Tenants != nil && p.Tenant != "" {
		if t, ok := s.Tenants.Get(p.Tenant); ok {
			m, salt := t.Resolve()
			return tenantCtx{model: m, salt: salt}, t, false
		}
		if p.TenantExplicit {
			http.Error(w, "unknown tenant: "+p.Tenant, http.StatusNotFound)
			return tenantCtx{}, nil, true
		}
	}
	return s.cur.Load().tenantCtx, s.Base, false
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
//
// The two POSTs that may create the tenant are answered first; every other
// arm needs a registered one, which is looked up — and refused — once, and
// then drives that tenant's Domain exactly as /adapt/* drives the base's.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, "/tenants"), "/")
	if path == "" {
		if !wire.AllowOnly(w, r, http.MethodGet) {
			return
		}
		writeJSON(w, s.Tenants.List())
		return
	}
	id, rest, _ := strings.Cut(path, "/")

	switch {
	case rest == "" && r.Method == http.MethodPost:
		t, created, err := s.Tenants.Register(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if created {
			w.WriteHeader(http.StatusCreated)
		}
		writeJSON(w, t.Info())
		return
	case rest == "" && r.Method != http.MethodGet:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "GET or POST required", http.StatusMethodNotAllowed)
		return
	case rest == "adapter/load":
		if !wire.AllowOnly(w, r, http.MethodPost) {
			return
		}
		v, err := strconv.Atoi(wire.QueryParam(r.URL.RawQuery, "version"))
		if err != nil || v < 1 {
			http.Error(w, "version query parameter required (a positive integer)", http.StatusBadRequest)
			return
		}
		t, err := s.Tenants.Load(id, v)
		if err != nil {
			writeDomainError(w, err)
			return
		}
		writeJSON(w, t.Info())
		return
	}

	t, ok := s.Tenants.Get(id)
	if !ok {
		http.Error(w, "unknown tenant: "+id, http.StatusNotFound)
		return
	}
	switch rest {
	case "":
		writeJSON(w, t.Info())
	case "adapt/status":
		serveAdaptStatus(w, r, t)
	case "adapt/trigger":
		serveAdaptTrigger(w, r, t)
	case "adapter/rollback":
		if !wire.AllowOnly(w, r, http.MethodPost) {
			return
		}
		if _, err := t.Rollback(); err != nil {
			writeDomainError(w, err)
			return
		}
		writeJSON(w, t.Info())
	default:
		http.NotFound(w, r)
	}
}
