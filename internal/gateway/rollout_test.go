package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dace/internal/adapt"
	"dace/internal/core"
	"dace/internal/serve"
	"dace/internal/tenant"
)

// versioned builds each rollout-test replica: a tenant zero over m whose
// own model dir holds versions 1 through 5, every one of them m.
func versioned(t *testing.T, m *core.Model) func(int) *tenant.Registry {
	return func(int) *tenant.Registry {
		dir := t.TempDir()
		for v := 1; v <= 5; v++ {
			if _, err := adapt.SaveVersion(dir, m, fmt.Sprint("v", v)); err != nil {
				t.Fatal(err)
			}
		}
		return tenant.New(m, nil, nil, tenant.Config{Adapt: adapt.Config{ModelDir: dir}})
	}
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
// version on one replica only, commit rolls the rest of the fleet, and a
// later rollout can be aborted back to the committed version.
func TestGatewayRollout(t *testing.T) {
	m, _ := trainedModel(t)
	f := newFleet(t, m, 2, versioned(t, m))

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
	f := newFleet(t, m, 3, versioned(t, m))

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

// TestGatewayRolloutKeepsShardAffinity: an active rollout changes which
// model one shard runs, not where plans go. K distinct plans sent R times
// to a cached fleet mid-rollout miss each body cache once per plan and hit
// on every repeat, exactly as without a rollout.
func TestGatewayRolloutKeepsShardAffinity(t *testing.T) {
	m, samples := trainedModel(t)
	f := newFleetConfig(t, m, 3, serve.Config{CacheSize: 256}, versioned(t, m))
	if st, body := postJSON(t, f.front.URL+"/rollout/start?version=2"); st != http.StatusOK {
		t.Fatalf("rollout start: %d %s", st, body)
	}
	const repeats = 3
	distinct := map[string]bool{}
	for r := 0; r < repeats; r++ {
		for i := 0; i < 40; i++ {
			b := planJSON(t, samples[i].Plan)
			distinct[string(b)] = true
			if st, _, resp := post(t, f.front.URL+"/predict", "application/json", b); st != http.StatusOK {
				t.Fatalf("plan %d: %d %s", i, st, resp)
			}
		}
	}
	var hits, misses uint64
	for i, b := range f.backends {
		resp, err := http.Get(b.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h serve.Health
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil || h.BodyCache == nil {
			t.Fatalf("replica %d health: %v (body cache %v)", i, err, h.BodyCache)
		}
		hits, misses = hits+h.BodyCache.Hits, misses+h.BodyCache.Misses
	}
	if k := uint64(len(distinct)); misses != k || hits != k*(repeats-1) {
		t.Errorf("fleet body caches mid-rollout: %d misses / %d hits for %d plans × %d sends, want %d / %d",
			misses, hits, k, repeats, k, k*(repeats-1))
	}
}

// TestGatewayRolloutOperationsSerialize: a start that arrives while another
// start is still loading its canary is answered 409 and reaches no replica,
// so the first rollout's record — what abort restores — stands.
func TestGatewayRolloutOperationsSerialize(t *testing.T) {
	var loads atomic.Int64
	arrived := make(chan struct{}, 2)
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz/ready", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ready"}`))
	})
	mux.HandleFunc("/model/load", func(w http.ResponseWriter, r *http.Request) {
		loads.Add(1)
		arrived <- struct{}{}
		<-release
		w.Write([]byte(`{"version":3,"previous":1}`))
	})
	backend := httptest.NewServer(mux)
	defer backend.Close()
	gw, err := New(Config{Replicas: []string{backend.URL}, HealthInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	statuses := make(chan int, 2)
	start := func() {
		resp, err := http.Post(front.URL+"/rollout/start?version=3", "", nil)
		if err != nil {
			statuses <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		statuses <- resp.StatusCode
	}
	go start()
	<-arrived // the first start is loading its canary
	go start()
	got, answered := map[int]int{}, 0
	select {
	case st := <-statuses:
		got[st]++
		answered++
	case <-arrived:
		t.Error("a second start reached the replica while the first was loading")
	case <-time.After(5 * time.Second):
		t.Error("the second start neither answered nor reached the replica")
	}
	close(release)
	for ; answered < 2; answered++ {
		got[<-statuses]++
	}
	if got[http.StatusOK] != 1 || got[http.StatusConflict] != 1 || loads.Load() != 1 {
		t.Fatalf("two racing starts: statuses %v, %d model loads; want one 200, one 409, one load", got, loads.Load())
	}
	if st := gw.rollout.status(); !st.Active || st.Version != 3 || st.PrevVersion != 1 {
		t.Fatalf("rollout record after the race: %+v", st)
	}
}
