package serve

import (
	"net/http"
	"strings"

	"dace/internal/tenant"
	"dace/internal/wire"
)

// resolve maps the request's tenant identity (wire.Params: the
// X-DACE-Tenant header wins over the database query param) to the tenant
// that answers it and that tenant's snapshot: the named tenant when it is
// registered, else tenant zero. handled=true means the response was already
// written: 404 for an explicitly named tenant a server with tenants enabled
// does not know (an implicit one, or any name on a server without tenants,
// gets tenant zero).
func (s *Server) resolve(w http.ResponseWriter, p wire.Params) (t *tenant.Tenant, st *tenant.State, handled bool) {
	if p.Tenant != "" {
		if t, ok := s.reg.Get(p.Tenant); ok {
			return t, t.Resolve(), false
		}
		if p.TenantExplicit && s.reg.Base() != nil {
			http.Error(w, "unknown tenant: "+p.Tenant, http.StatusNotFound)
			return nil, nil, true
		}
	}
	t = s.reg.Zero()
	return t, t.State(), false
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
// then driven exactly as /adapt/* drives tenant zero.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, "/tenants"), "/")
	if path == "" {
		if !wire.AllowOnly(w, r, http.MethodGet) {
			return
		}
		writeJSON(w, s.reg.List())
		return
	}
	id, rest, _ := strings.Cut(path, "/")

	switch {
	case rest == "" && r.Method == http.MethodPost:
		t, created, err := s.reg.Register(id)
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
		v, ok := versionParam(w, r, 1)
		if !ok {
			return
		}
		t, err := s.reg.Load(id, v)
		if err != nil {
			writeDomainError(w, err)
			return
		}
		writeJSON(w, t.Info())
		return
	}

	t, ok := s.reg.Get(id)
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
