package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"dace/internal/wire"
)

// Model rollout: move the whole fleet to one model version, one replica
// first. Each replica's own adapt controller promotes, loads and rolls back
// its model; what no replica can do alone is move the others with it.
//
//	POST /rollout/start?version=N[&replica=host:port]  load v<N> on a canary
//	GET  /rollout/status                               the active rollout
//	POST /rollout/commit                               load v<N> fleet-wide
//	POST /rollout/abort                                restore the canary
//
// While a rollout is active the canary serves its own shard on the new
// version — that is the exposure — and every other replica keeps the old
// one, so routing and each shard's caches are what they were. The three
// operations are cold and run one at a time: one that arrives while another
// is still loading a replica is answered 409.

// rolloutState carries the active rollout, if any.
type rolloutState struct {
	op     sync.Mutex              // held by the start, commit or abort in flight
	active atomic.Pointer[rollout] // nil: no rollout; stored only under op
}

// rollout is one active rollout: the version on the canary and the version
// it replaced there.
type rollout struct {
	version, prevVersion int
	canary               *Replica
}

// RolloutStatus is the /rollout/status (and /healthz rollout) document.
type RolloutStatus struct {
	Active      bool   `json:"active"`
	Version     int    `json:"version,omitempty"`
	PrevVersion int    `json:"prev_version,omitempty"`
	Canary      string `json:"canary,omitempty"`
}

// status snapshots the rollout for /rollout/status and /healthz.
func (rs *rolloutState) status() RolloutStatus {
	ro := rs.active.Load()
	if ro == nil {
		return RolloutStatus{}
	}
	return RolloutStatus{Active: true, Version: ro.version, PrevVersion: ro.prevVersion, Canary: ro.canary.Name}
}

// begin claims the rollout for one operation, or answers the request itself:
// 405 for a method other than POST, 409 while another operation is in
// flight. After a true return the caller must unlock rs.op.
func (rs *rolloutState) begin(w http.ResponseWriter, r *http.Request) bool {
	if !wire.AllowOnly(w, r, http.MethodPost) {
		return false
	}
	if !rs.op.TryLock() {
		http.Error(w, "another rollout start, commit or abort is in flight", http.StatusConflict)
		return false
	}
	return true
}

// loadModelOn asks one replica to load a model version, returning the
// replica's previous version.
func (g *Gateway) loadModelOn(rep *Replica, version int) (prev int, err error) {
	var ws wireBuf
	path := "/model/load?version=" + strconv.Itoa(version)
	status, resp, err := rep.up.roundTrip(&ws, http.MethodPost, path, "", tenantID{}, nil)
	if err != nil {
		return 0, fmt.Errorf("replica %s: %w", rep.Name, err)
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("replica %s: model load returned %d: %s", rep.Name, status, resp)
	}
	var st struct {
		Version  int  `json:"version"`
		Previous *int `json:"previous"`
	}
	if err := json.Unmarshal(resp, &st); err != nil {
		return 0, fmt.Errorf("replica %s: bad model load response: %w", rep.Name, err)
	}
	if st.Previous != nil {
		prev = *st.Previous
	}
	return prev, nil
}

// handleRolloutStart loads a version onto the canary.
func (g *Gateway) handleRolloutStart(w http.ResponseWriter, r *http.Request) {
	rs := &g.rollout
	if !rs.begin(w, r) {
		return
	}
	defer rs.op.Unlock()
	query := r.URL.RawQuery
	version, err := strconv.Atoi(wire.QueryParam(query, "version"))
	if err != nil || version < 0 {
		http.Error(w, "version query parameter required (non-negative integer)", http.StatusBadRequest)
		return
	}
	if ro := rs.active.Load(); ro != nil {
		http.Error(w, fmt.Sprintf("rollout of v%d already active; commit or abort it first", ro.version), http.StatusConflict)
		return
	}

	var canary *Replica
	if name := wire.QueryParam(query, "replica"); name != "" {
		for _, rep := range g.pool.replicas {
			if rep.Name == name {
				canary = rep
				break
			}
		}
		if canary == nil {
			http.Error(w, fmt.Sprintf("unknown replica %q", name), http.StatusBadRequest)
			return
		}
	} else {
		for _, rep := range g.pool.replicas {
			if rep.Healthy() {
				canary = rep
				break
			}
		}
		if canary == nil {
			writeRouteError(w, errNoReplicas)
			return
		}
	}

	prev, err := g.loadModelOn(canary, version)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	rs.active.Store(&rollout{version: version, prevVersion: prev, canary: canary})
	writeRolloutStatus(w, rs.status())
}

// handleRolloutStatus reports the active rollout.
func (g *Gateway) handleRolloutStatus(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowOnly(w, r, http.MethodGet) {
		return
	}
	writeRolloutStatus(w, g.rollout.status())
}

// handleRolloutCommit rolls the canary's version onto every other replica
// and ends the rollout. Replicas are loaded one at a time — at most one
// replica is mid-load at any moment, so a bad artifact cannot take down
// the fleet at once. Ejected replicas are skipped rather than failing the
// commit: a partial outage must not pin the fleet on the old version. A
// skipped replica rejoins with whatever it was serving, so operators
// reconcile it on restart (it loads the current artifact) or by
// re-running a rollout once it is healthy.
func (g *Gateway) handleRolloutCommit(w http.ResponseWriter, r *http.Request) {
	rs := &g.rollout
	if !rs.begin(w, r) {
		return
	}
	defer rs.op.Unlock()
	ro := rs.active.Load()
	if ro == nil {
		http.Error(w, "no active rollout", http.StatusConflict)
		return
	}
	for _, rep := range g.pool.replicas {
		if rep == ro.canary || !rep.Healthy() {
			continue
		}
		if _, err := g.loadModelOn(rep, ro.version); err != nil {
			http.Error(w, fmt.Sprintf("rollout stalled (canary and earlier replicas updated): %v", err), http.StatusBadGateway)
			return
		}
	}
	final := rs.status()
	rs.active.Store(nil)
	writeRolloutStatus(w, final)
}

// handleRolloutAbort restores the canary's previous version and ends the
// rollout.
func (g *Gateway) handleRolloutAbort(w http.ResponseWriter, r *http.Request) {
	rs := &g.rollout
	if !rs.begin(w, r) {
		return
	}
	defer rs.op.Unlock()
	ro := rs.active.Load()
	if ro == nil {
		http.Error(w, "no active rollout", http.StatusConflict)
		return
	}
	if _, err := g.loadModelOn(ro.canary, ro.prevVersion); err != nil {
		http.Error(w, fmt.Sprintf("abort failed, canary still on new version: %v", err), http.StatusBadGateway)
		return
	}
	final := rs.status()
	rs.active.Store(nil)
	writeRolloutStatus(w, final)
}

func writeRolloutStatus(w http.ResponseWriter, st RolloutStatus) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}
