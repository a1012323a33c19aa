package gateway

import "dace/internal/wire"

// Tenant pass-through. The gateway does not resolve tenants — that is the
// replica's job — but it must carry the client's tenant identity across
// the upstream hop, preserving the serve layer's semantics on both routes
// in: an X-DACE-Tenant header is explicit (the replica 404s when unknown)
// and forwards as the same header; a database query param is implicit (an
// unmatched value falls back to the base model) and forwards as the same
// query param, since the assembled upstream request otherwise carries no
// query string.

// tenantID is one request's tenant identity for the upstream hop. The zero
// value forwards nothing.
type tenantID struct {
	id       string
	explicit bool // header (forward as header) vs database param (forward as query)
}

// tenantOf picks the identity to forward from the request's negotiated
// params. An implicit identity that is not a valid tenant ID is dropped
// rather than forwarded: it cannot name a registered tenant (the registry
// stores only IDs the same rule accepts), the replica would fall back to the
// base model anyway, and raw bytes like spaces or '&' must not be spliced
// into the upstream request line.
func tenantOf(p wire.Params) tenantID {
	if !p.TenantExplicit && wire.ValidateTenantID(p.Tenant) != nil {
		return tenantID{}
	}
	return tenantID{id: p.Tenant, explicit: p.TenantExplicit}
}
