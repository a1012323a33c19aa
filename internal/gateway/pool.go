package gateway

import (
	"fmt"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Replica is one daced instance behind the gateway: its upstream connection
// pool, health state, and counters. The replica set is fixed at gateway
// construction; health flips replicas in and out of the routing ring.
type Replica struct {
	Name string // host:port — the telemetry label and health-report key
	idx  int    // position in Pool.replicas (the batch path's shard index)
	seed uint64 // base point for the replica's vnodes
	up   *upstream

	healthy atomic.Bool

	// inflight bounds concurrent upstream requests through this replica.
	// Hitting the bound is backpressure: the gateway answers 503 with
	// Retry-After instead of queueing unboundedly in front of a replica
	// that is already saturated (the replica's own 503s pass through the
	// same way).
	inflight    atomic.Int64
	inflightHWM atomic.Int64 // highest concurrency this replica has absorbed
	maxInflight int64

	requests  atomic.Uint64 // upstream round trips attempted
	errored   atomic.Uint64 // transport failures (each one ejects)
	rejected  atomic.Uint64 // backpressure 503s issued for this replica
	ejections atomic.Uint64 // healthy→ejected transitions
}

// Healthy reports whether the replica is currently in the routing ring.
func (rep *Replica) Healthy() bool { return rep.healthy.Load() }

// acquire claims an in-flight slot; callers must release on every path.
func (rep *Replica) acquire() bool {
	cur := rep.inflight.Add(1)
	if cur > rep.maxInflight {
		rep.inflight.Add(-1)
		rep.rejected.Add(1)
		return false
	}
	if cur > rep.inflightHWM.Load() {
		for {
			old := rep.inflightHWM.Load()
			if cur <= old || rep.inflightHWM.CompareAndSwap(old, cur) {
				break
			}
		}
	}
	return true
}

func (rep *Replica) release() { rep.inflight.Add(-1) }

// ReplicaHealth is one replica's entry in the gateway health report.
type ReplicaHealth struct {
	Name        string `json:"name"`
	Healthy     bool   `json:"healthy"`
	Inflight    int64  `json:"inflight"`
	InflightHWM int64  `json:"inflight_hwm"`
	Requests    uint64 `json:"requests"`
	Errors      uint64 `json:"errors"`
	Rejected    uint64 `json:"rejected"`
	Ejections   uint64 `json:"ejections"`
}

// Pool is the health-checked replica membership plus the current routing
// ring. Membership changes (ejection, re-admission) rebuild the ring
// snapshot under a mutex; routing reads it lock-free.
type Pool struct {
	replicas []*Replica
	ring     ringHolder
	mu       sync.Mutex // serializes ring rebuilds
	interval time.Duration

	stop chan struct{}
	done chan struct{}
}

// failAfter consecutive probe failures eject a replica; readmitAfter
// consecutive successes re-admit it.
const failAfter, readmitAfter = 2, 2

// parseReplicaURL extracts the dial address and Host header from a replica
// base URL ("http://host:port" or bare "host:port").
func parseReplicaURL(raw string) (addr, host string, err error) {
	s := raw
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	u, err := url.Parse(s)
	if err != nil {
		return "", "", fmt.Errorf("gateway: replica url %q: %w", raw, err)
	}
	if u.Scheme != "http" {
		return "", "", fmt.Errorf("gateway: replica url %q: only http upstreams are supported", raw)
	}
	if u.Host == "" {
		return "", "", fmt.Errorf("gateway: replica url %q has no host", raw)
	}
	addr = u.Host
	if u.Port() == "" {
		addr += ":80"
	}
	return addr, u.Host, nil
}

// newPool builds the replica set (all initially healthy) and starts the
// health loop.
func newPool(urls []string, maxInflight int, interval time.Duration) (*Pool, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("gateway: no replicas configured")
	}
	if maxInflight <= 0 {
		maxInflight = 256
	}
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	p := &Pool{interval: interval, stop: make(chan struct{}), done: make(chan struct{})}
	seen := map[string]bool{}
	for i, raw := range urls {
		addr, host, err := parseReplicaURL(raw)
		if err != nil {
			return nil, err
		}
		if seen[addr] {
			return nil, fmt.Errorf("gateway: duplicate replica %q", raw)
		}
		seen[addr] = true
		rep := &Replica{
			Name:        addr,
			idx:         i,
			seed:        replicaSeed(addr),
			up:          newUpstream(addr, host),
			maxInflight: int64(maxInflight),
		}
		rep.healthy.Store(true)
		p.replicas = append(p.replicas, rep)
	}
	p.rebuild()
	go p.healthLoop()
	return p, nil
}

// route returns the healthy replica owning hash h, or nil when the fleet is
// entirely ejected. Lock-free: one atomic load plus a binary search.
func (p *Pool) route(h uint64) *Replica { return p.ring.load().lookup(h) }

// healthyCount returns the number of replicas currently in the ring.
func (p *Pool) healthyCount() int {
	n := 0
	for _, rep := range p.replicas {
		if rep.Healthy() {
			n++
		}
	}
	return n
}

// eject removes a replica from the routing ring. Called by the health loop
// after failAfter consecutive probe failures, and directly by the request
// path on a transport error — a connection refused mid-request is a
// stronger signal than any probe, and ejecting immediately lets the request
// retry on the remapped ring without waiting out a probe interval.
func (p *Pool) eject(rep *Replica) {
	if rep.healthy.CompareAndSwap(true, false) {
		rep.ejections.Add(1)
		rep.up.closeIdle() // pooled conns to a sick replica are poison
		p.rebuild()
	}
}

// readmit returns a recovered replica to the ring.
func (p *Pool) readmit(rep *Replica) {
	if rep.healthy.CompareAndSwap(false, true) {
		p.rebuild()
	}
}

// rebuild swaps in a fresh ring over the currently healthy replicas.
func (p *Pool) rebuild() {
	p.mu.Lock()
	defer p.mu.Unlock()
	healthy := make([]*Replica, 0, len(p.replicas))
	for _, rep := range p.replicas {
		if rep.Healthy() {
			healthy = append(healthy, rep)
		}
	}
	p.ring.store(buildRing(healthy))
}

// healthLoop probes every replica's readiness endpoint on a fixed interval.
// Consecutive-failure/-success counters (owned by this goroutine) debounce
// flapping: failAfter misses eject, readmitAfter passes re-admit. Ejected
// replicas keep being probed — that is the re-admission path. Probing hits
// /healthz/ready, not /healthz/live: a replica that is alive but draining
// (or still loading its first model) must leave the ring too.
func (p *Pool) healthLoop() {
	defer close(p.done)
	consecFail := make([]int, len(p.replicas))
	consecOK := make([]int, len(p.replicas))
	var ws wireBuf
	ticker := time.NewTicker(p.interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
		}
		for i, rep := range p.replicas {
			if rep.up.probe(&ws, "/healthz/ready") {
				consecFail[i] = 0
				consecOK[i]++
				if !rep.Healthy() && consecOK[i] >= readmitAfter {
					p.readmit(rep)
				}
			} else {
				consecOK[i] = 0
				consecFail[i]++
				if rep.Healthy() && consecFail[i] >= failAfter {
					p.eject(rep)
				}
			}
		}
	}
}

// close stops the health loop and tears down every upstream connection.
func (p *Pool) close() {
	close(p.stop)
	<-p.done
	for _, rep := range p.replicas {
		rep.up.closeIdle()
	}
}

// health snapshots every replica's state for the gateway health endpoint.
func (p *Pool) health() []ReplicaHealth {
	out := make([]ReplicaHealth, len(p.replicas))
	for i, rep := range p.replicas {
		out[i] = ReplicaHealth{
			Name:        rep.Name,
			Healthy:     rep.Healthy(),
			Inflight:    rep.inflight.Load(),
			InflightHWM: rep.inflightHWM.Load(),
			Requests:    rep.requests.Load(),
			Errors:      rep.errored.Load(),
			Rejected:    rep.rejected.Load(),
			Ejections:   rep.ejections.Load(),
		}
	}
	return out
}
