package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"dace/internal/core"
	"dace/internal/plan"
	"dace/internal/serve"
)

// anyVersion is a replica's base domain in the rollout tests: every version
// up to max loads, as the one model.
type anyVersion struct {
	serve.Domain
	s   *serve.Server
	m   *core.Model
	max int
}

func (d anyVersion) Load(v int) (int, error) {
	if v > d.max {
		return 0, fmt.Errorf("no artifact v%d", v)
	}
	_, prev := d.s.Served()
	d.s.Publish(d.m, v)
	return prev, nil
}

func postJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func replicaVersion(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Version int `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Version
}

// TestGatewayRollout drives the full canary lifecycle: start loads the new
// version on one replica only, mirrored traffic produces shadow scores,
// commit rolls the rest of the fleet, and a later rollout can be aborted
// back to the committed version.
func TestGatewayRollout(t *testing.T) {
	m, samples := trainedModel(t)
	f := newFleet(t, m, 2, func(i int, s *serve.Server) {
		s.Base = anyVersion{s: s, m: m, max: 10}
	})

	// Start: version 3 lands on exactly one replica.
	st, body := postJSON(t, f.front.URL+"/rollout/start?version=3")
	if st != http.StatusOK {
		t.Fatalf("rollout start: %d %s", st, body)
	}
	var status RolloutStatus
	if err := json.Unmarshal(body, &status); err != nil || !status.Active || status.Version != 3 {
		t.Fatalf("rollout status %s (%v)", body, err)
	}
	versions := []int{replicaVersion(t, f.backends[0].URL), replicaVersion(t, f.backends[1].URL)}
	onNew := 0
	for _, v := range versions {
		if v == 3 {
			onNew++
		}
	}
	if onNew != 1 {
		t.Fatalf("canary start put version 3 on %d replicas (versions %v), want exactly 1", onNew, versions)
	}

	// A second start while one is active must 409.
	if st, _ := postJSON(t, f.front.URL+"/rollout/start?version=4"); st != http.StatusConflict {
		t.Fatalf("concurrent rollout start: %d, want 409", st)
	}

	// Mirrored traffic produces shadow comparisons (MirrorEvery=1 in
	// newFleet, so every routed predict mirrors).
	for i := 0; i < 8; i++ {
		b, err := plan.AppendBinary(nil, samples[i].Plan)
		if err != nil {
			t.Fatal(err)
		}
		if st, _, resp := post(t, f.front.URL+"/predict", plan.BinaryContentType, b); st != http.StatusOK {
			t.Fatalf("predict during rollout: %d %s", st, resp)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if st := f.gw.rollout.status(); st.Compared > 0 {
			if st.Diverged != 0 {
				// Canary and baseline share one model here; divergence
				// would mean the mirror compared different plans.
				t.Fatalf("identical models diverged: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no shadow comparisons recorded: %+v", f.gw.rollout.status())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Commit: the whole fleet lands on version 3 and the rollout ends.
	if st, body := postJSON(t, f.front.URL+"/rollout/commit"); st != http.StatusOK {
		t.Fatalf("rollout commit: %d %s", st, body)
	}
	for i, b := range f.backends {
		if v := replicaVersion(t, b.URL); v != 3 {
			t.Fatalf("replica %d at version %d after commit, want 3", i, v)
		}
	}
	if st := f.gw.rollout.status(); st.Active {
		t.Fatal("rollout still active after commit")
	}
	if st, _ := postJSON(t, f.front.URL+"/rollout/commit"); st != http.StatusConflict {
		t.Fatalf("commit without active rollout: %d, want 409", st)
	}

	// Abort: a new canary returns to its pre-rollout version.
	if st, body := postJSON(t, f.front.URL+"/rollout/start?version=5"); st != http.StatusOK {
		t.Fatalf("second rollout start: %d %s", st, body)
	}
	if st, body := postJSON(t, f.front.URL+"/rollout/abort"); st != http.StatusOK {
		t.Fatalf("rollout abort: %d %s", st, body)
	}
	for i, b := range f.backends {
		if v := replicaVersion(t, b.URL); v != 3 {
			t.Fatalf("replica %d at version %d after abort, want 3", i, v)
		}
	}

	// A version the replicas cannot load fails the start cleanly.
	if st, _ := postJSON(t, f.front.URL+"/rollout/start?version=99"); st != http.StatusBadGateway {
		t.Fatalf("unloadable version: %d, want 502", st)
	}
}

// TestGatewayRolloutCommitSkipsDeadReplica: a partial outage must not pin
// the fleet on the old version — commit loads the healthy replicas and
// succeeds, leaving the ejected one to reconcile when it returns.
func TestGatewayRolloutCommitSkipsDeadReplica(t *testing.T) {
	m, _ := trainedModel(t)
	f := newFleet(t, m, 3, func(i int, s *serve.Server) {
		s.Base = anyVersion{s: s, m: m, max: 10}
	})

	if st, body := postJSON(t, f.front.URL+"/rollout/start?version=2"); st != http.StatusOK {
		t.Fatalf("rollout start: %d %s", st, body)
	}
	canary := f.gw.rollout.status().Canary

	// Kill a non-canary replica and wait for the probes to eject it.
	var victim int
	for i, rep := range f.gw.Replicas() {
		if rep.Name != canary {
			victim = i
			break
		}
	}
	f.backends[victim].CloseClientConnections()
	f.backends[victim].Close()
	deadline := time.Now().Add(3 * time.Second)
	for f.gw.Replicas()[victim].Healthy {
		if time.Now().After(deadline) {
			t.Fatal("dead replica never ejected")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if st, body := postJSON(t, f.front.URL+"/rollout/commit"); st != http.StatusOK {
		t.Fatalf("commit with a dead replica: %d %s, want 200", st, body)
	}
	for i, b := range f.backends {
		if i == victim {
			continue
		}
		if v := replicaVersion(t, b.URL); v != 2 {
			t.Fatalf("healthy replica %d at version %d after commit, want 2", i, v)
		}
	}
}

func TestParseRootMS(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{`{"root_ms":12.5,"subplans":[]}`, 12.5, true},
		{`{"root_ms":3}`, 3, true},
		{`{"other":1}`, 0, false},
		{`[]`, 0, false},
		{``, 0, false},
	}
	for _, c := range cases {
		got, ok := parseRootMS([]byte(c.in))
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("parseRootMS(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}
