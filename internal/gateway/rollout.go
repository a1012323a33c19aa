package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"dace/internal/plan"
	"dace/internal/wire"
)

// Model rollout: promote a new model version onto one replica (the canary),
// shadow-score it on mirrored traffic, then roll the fleet or abort.
//
//	POST /rollout/start?version=N[&replica=host:port]  load v<N> on a canary
//	GET  /rollout/status                               shadow-score report
//	POST /rollout/commit                               load v<N> fleet-wide
//	POST /rollout/abort                                restore the canary
//
// While a rollout is active the canary keeps serving its own shard — that
// is the live exposure — and the gateway additionally mirrors a 1-in-N
// sample of routed /predict traffic to it asynchronously, off the request
// path. Each mirrored plan is also sent to a healthy non-canary replica
// (old model) and the two root_ms predictions are compared; the divergence
// stats on /rollout/status are the promote/abort signal.

// rolloutState carries one active rollout. Zero value = no rollout.
type rolloutState struct {
	mirrorEvery int

	active atomic.Bool   // hot-path gate for maybeMirror
	n      atomic.Uint64 // sampling counter

	mu          sync.Mutex
	version     int
	prevVersion int
	canary      *Replica
	mirrorCh    chan []byte
	done        chan struct{}

	stats rolloutStats
}

type rolloutStats struct {
	mirrored atomic.Uint64 // bodies accepted for mirroring
	compared atomic.Uint64 // canary/baseline prediction pairs scored
	diverged atomic.Uint64 // pairs with |rel diff| > divergeRel
	errors   atomic.Uint64 // mirror round trips that failed

	mu     sync.Mutex
	sumRel float64
	maxRel float64
}

// divergeRel is the relative root_ms divergence beyond which a mirrored
// pair counts as diverged.
const divergeRel = 0.25

// RolloutStatus is the /rollout/status (and /healthz rollout) document.
type RolloutStatus struct {
	Active         bool    `json:"active"`
	Version        int     `json:"version,omitempty"`
	PrevVersion    int     `json:"prev_version,omitempty"`
	Canary         string  `json:"canary,omitempty"`
	Mirrored       uint64  `json:"mirrored"`
	Compared       uint64  `json:"compared"`
	Diverged       uint64  `json:"diverged"`
	MirrorErrors   uint64  `json:"mirror_errors"`
	MeanAbsRelDiff float64 `json:"mean_abs_rel_diff"`
	MaxAbsRelDiff  float64 `json:"max_abs_rel_diff"`
}

// maybeMirror samples the routed request body onto the mirror queue. The
// inactive cost — every request, forever — is one atomic load. Sampled
// bodies are copied (the caller's buffer is pooled scratch) and dropped
// rather than queued when the mirror worker is behind: shadow traffic must
// never apply backpressure to real traffic.
func (rs *rolloutState) maybeMirror(body []byte) {
	if !rs.active.Load() {
		return
	}
	if rs.n.Add(1)%uint64(rs.mirrorEvery) != 0 {
		return
	}
	cp := make([]byte, len(body))
	copy(cp, body)
	rs.mu.Lock()
	ch := rs.mirrorCh
	rs.mu.Unlock()
	if ch == nil {
		return
	}
	select {
	case ch <- cp:
		rs.stats.mirrored.Add(1)
	default:
	}
}

// mirrorLoop scores mirrored plans: canary (new model) vs baseline (old).
// Errors here are counted, never ejected — shadow traffic must not affect
// fleet health.
func (g *Gateway) mirrorLoop(rs *rolloutState, canary *Replica, ch chan []byte, done chan struct{}) {
	defer close(done)
	var canaryWire, baseWire wireBuf
	for body := range ch {
		status, resp, err := canary.up.roundTrip(&canaryWire, http.MethodPost, "/predict", plan.BinaryContentType, tenantID{}, body)
		if err != nil || status != http.StatusOK {
			rs.stats.errors.Add(1)
			continue
		}
		newMS, ok := parseRootMS(resp)
		if !ok {
			rs.stats.errors.Add(1)
			continue
		}
		base := g.baselineFor(canary)
		if base == nil {
			continue // single-replica fleet: nothing to compare against
		}
		status, resp, err = base.up.roundTrip(&baseWire, http.MethodPost, "/predict", plan.BinaryContentType, tenantID{}, body)
		if err != nil || status != http.StatusOK {
			rs.stats.errors.Add(1)
			continue
		}
		oldMS, ok := parseRootMS(resp)
		if !ok {
			rs.stats.errors.Add(1)
			continue
		}
		rel := relDiff(newMS, oldMS)
		rs.stats.compared.Add(1)
		if rel > divergeRel {
			rs.stats.diverged.Add(1)
		}
		rs.stats.mu.Lock()
		rs.stats.sumRel += rel
		if rel > rs.stats.maxRel {
			rs.stats.maxRel = rel
		}
		rs.stats.mu.Unlock()
	}
}

// baselineFor picks a healthy replica other than the canary.
func (g *Gateway) baselineFor(canary *Replica) *Replica {
	for _, rep := range g.pool.replicas {
		if rep != canary && rep.Healthy() {
			return rep
		}
	}
	return nil
}

// relDiff is |a-b| relative to the larger magnitude (0 when both are 0).
func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m <= 0 {
		return 0
	}
	return d / m
}

// parseRootMS extracts the root_ms value from a Prediction document. The
// serve layer's renderer always emits `{"root_ms":<num>,` first, so a
// prefix scan suffices.
func parseRootMS(resp []byte) (float64, bool) {
	const prefix = `{"root_ms":`
	if len(resp) < len(prefix)+1 || string(resp[:len(prefix)]) != prefix {
		return 0, false
	}
	i := len(prefix)
	j := i
	for j < len(resp) && resp[j] != ',' && resp[j] != '}' {
		j++
	}
	v, err := strconv.ParseFloat(string(resp[i:j]), 64)
	return v, err == nil
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

// status snapshots the rollout for /rollout/status and /healthz.
func (rs *rolloutState) status() RolloutStatus {
	rs.mu.Lock()
	st := RolloutStatus{
		Active:      rs.active.Load(),
		Version:     rs.version,
		PrevVersion: rs.prevVersion,
	}
	if rs.canary != nil {
		st.Canary = rs.canary.Name
	}
	rs.mu.Unlock()
	st.Mirrored = rs.stats.mirrored.Load()
	st.Compared = rs.stats.compared.Load()
	st.Diverged = rs.stats.diverged.Load()
	st.MirrorErrors = rs.stats.errors.Load()
	rs.stats.mu.Lock()
	if st.Compared > 0 {
		st.MeanAbsRelDiff = rs.stats.sumRel / float64(st.Compared)
	}
	st.MaxAbsRelDiff = rs.stats.maxRel
	rs.stats.mu.Unlock()
	return st
}

// stopMirror deactivates sampling and waits out the mirror worker.
// Idempotent; also called from Close.
func (rs *rolloutState) stopMirror() {
	rs.mu.Lock()
	rs.active.Store(false)
	ch, done := rs.mirrorCh, rs.done
	rs.mirrorCh, rs.done = nil, nil
	rs.mu.Unlock()
	if ch != nil {
		close(ch)
		<-done
	}
}

// handleRolloutStart promotes a version onto the canary and starts
// mirroring.
func (g *Gateway) handleRolloutStart(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowOnly(w, r, http.MethodPost) {
		return
	}
	query := r.URL.RawQuery
	version, err := strconv.Atoi(wire.QueryParam(query, "version"))
	if err != nil || version < 0 {
		http.Error(w, "version query parameter required (non-negative integer)", http.StatusBadRequest)
		return
	}
	rs := &g.rollout
	rs.mu.Lock()
	if rs.active.Load() {
		rs.mu.Unlock()
		http.Error(w, fmt.Sprintf("rollout of v%d already active; commit or abort it first", rs.version), http.StatusConflict)
		return
	}
	rs.mu.Unlock()

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

	rs.mu.Lock()
	rs.version = version
	rs.prevVersion = prev
	rs.canary = canary
	rs.mirrorCh = make(chan []byte, 256)
	rs.done = make(chan struct{})
	rs.stats.mirrored.Store(0)
	rs.stats.compared.Store(0)
	rs.stats.diverged.Store(0)
	rs.stats.errors.Store(0)
	rs.stats.mu.Lock()
	rs.stats.sumRel, rs.stats.maxRel = 0, 0
	rs.stats.mu.Unlock()
	go g.mirrorLoop(rs, canary, rs.mirrorCh, rs.done)
	rs.active.Store(true)
	rs.mu.Unlock()

	writeRolloutStatus(w, rs.status())
}

// handleRolloutStatus reports shadow-score stats.
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
	if !wire.AllowOnly(w, r, http.MethodPost) {
		return
	}
	rs := &g.rollout
	rs.mu.Lock()
	if !rs.active.Load() {
		rs.mu.Unlock()
		http.Error(w, "no active rollout", http.StatusConflict)
		return
	}
	version, canary := rs.version, rs.canary
	rs.mu.Unlock()

	for _, rep := range g.pool.replicas {
		if rep == canary || !rep.Healthy() {
			continue
		}
		if _, err := g.loadModelOn(rep, version); err != nil {
			http.Error(w, fmt.Sprintf("rollout stalled (canary and earlier replicas updated): %v", err), http.StatusBadGateway)
			return
		}
	}
	final := rs.status()
	rs.stopMirror()
	writeRolloutStatus(w, final)
}

// handleRolloutAbort restores the canary's previous version and ends the
// rollout.
func (g *Gateway) handleRolloutAbort(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowOnly(w, r, http.MethodPost) {
		return
	}
	rs := &g.rollout
	rs.mu.Lock()
	if !rs.active.Load() {
		rs.mu.Unlock()
		http.Error(w, "no active rollout", http.StatusConflict)
		return
	}
	prev, canary := rs.prevVersion, rs.canary
	rs.mu.Unlock()

	if _, err := g.loadModelOn(canary, prev); err != nil {
		http.Error(w, fmt.Sprintf("abort failed, canary still on new version: %v", err), http.StatusBadGateway)
		return
	}
	final := rs.status()
	rs.stopMirror()
	writeRolloutStatus(w, final)
}

func writeRolloutStatus(w http.ResponseWriter, st RolloutStatus) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}
