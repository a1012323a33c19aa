// Cluster mode: a fingerprint-sharded gateway routing to replicated DACE
// servers — in one process, on loopback, with no setup. Trains a small
// model, starts three replicas and a gateway, and walks through what the
// sharding buys: stable plan→replica affinity, zero failed requests while
// a replica dies, and a rollout that moves the live fleet to one model
// version, one replica first.
//
//	go run ./examples/cluster
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dace/internal/adapt"
	"dace/internal/core"
	"dace/internal/dataset"
	"dace/internal/executor"
	"dace/internal/gateway"
	"dace/internal/schema"
	"dace/internal/serve"
	"dace/internal/tenant"
)

func main() {
	// 1. One model shared by every replica — in production each daced
	//    process loads the same artifact from disk.
	samples, err := dataset.ComplexWorkload(schema.BenchmarkDB("airline"), 120, executor.M1())
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Epochs = 8
	model := core.Train(dataset.Plans(samples), cfg)

	// 2. Three replicas on real loopback listeners, each running the full
	//    serving pipeline (cache + coalescing + admission) over what daced
	//    -model-dir wires: a tenant zero adapting into the replica's own
	//    artifact directory, so the rollout below can load v<N>.dace
	//    remotely. Both versions hold the one model here.
	const replicas = 3
	modelDirs, err := os.MkdirTemp("", "dace-cluster-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(modelDirs)
	addrs := make([]string, replicas)
	servers := make([]*serve.Server, replicas)
	httpSrvs := make([]*http.Server, replicas)
	for i := range addrs {
		dir := filepath.Join(modelDirs, fmt.Sprint(i))
		for _, note := range []string{"v1", "v2"} {
			if _, err := adapt.SaveVersion(dir, model, note); err != nil {
				log.Fatal(err)
			}
		}
		domains := tenant.New(model, nil, nil, tenant.Config{Adapt: adapt.Config{ModelDir: dir}})
		if _, err := domains.Zero().Load(1); err != nil {
			log.Fatal(err)
		}
		s := serve.NewWithRegistry(domains, serve.Config{CacheSize: 4096})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		servers[i], httpSrvs[i] = s, &http.Server{Handler: s.Handler()}
		go httpSrvs[i].Serve(ln)
	}

	// 3. The gateway: consistent-hashes each plan's parse-time fingerprint
	//    to its home replica, so the fleet's caches partition the workload
	//    instead of replicating it.
	gw, err := gateway.New(gateway.Config{Replicas: addrs, HealthInterval: 50 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	front := &http.Server{Handler: gw.Handler()}
	go front.Serve(ln)
	frontURL := "http://" + ln.Addr().String()
	fmt.Printf("gateway %s routing to %d replicas %v\n\n", ln.Addr(), replicas, addrs)

	// 4. Route traffic. The same plan always lands on the same replica
	//    (cacheable everywhere it matters); different plans spread out.
	bodies := make([][]byte, 12)
	for i := range bodies {
		var buf bytes.Buffer
		if err := samples[i].Plan.WriteJSON(&buf); err != nil {
			log.Fatal(err)
		}
		bodies[i] = buf.Bytes()
	}
	for round := 0; round < 2; round++ {
		for i, b := range bodies {
			pred := predict(frontURL, b)
			if round == 0 && i < 3 {
				fmt.Printf("plan %d → root_ms %.3f\n", i, pred)
			}
		}
	}
	printHealth(frontURL, "after 2 rounds")

	// 5. Kill a replica mid-traffic. The gateway ejects it (passively on
	//    the first transport error, actively via readiness probes) and
	//    remaps only its keys; every request still succeeds.
	httpSrvs[0].Close()
	servers[0].Close()
	fmt.Printf("\nkilled replica %s; routing on...\n", addrs[0])
	for _, b := range bodies {
		predict(frontURL, b) // zero failures: transport errors retry on the remapped ring
	}
	printHealth(frontURL, "after kill")

	// 6. Rollout: version 2 on one replica (the canary serves its own
	//    shard on it while the others stay on v1), then committed to the
	//    (healthy) fleet. The short sleep lets the readiness probes finish
	//    ejecting the killed replica so the canary pick and the commit only
	//    consider live ones.
	time.Sleep(250 * time.Millisecond)
	post(frontURL + "/rollout/start?version=2")
	for _, b := range bodies {
		predict(frontURL, b)
	}
	var st gateway.RolloutStatus
	getJSON(frontURL+"/rollout/status", &st)
	fmt.Printf("\nrollout: canary %s on v%d (was v%d)\n", st.Canary, st.Version, st.PrevVersion)
	post(frontURL + "/rollout/commit")
	fmt.Println("rollout committed; model version per live replica:")
	for _, addr := range addrs[1:] { // addrs[0] was killed in step 5
		var m struct {
			Version int `json:"version"`
		}
		getJSON("http://"+addr+"/model", &m)
		fmt.Printf("  %-21s v%d\n", addr, m.Version)
	}
}

func predict(frontURL string, body []byte) float64 {
	resp, err := http.Post(frontURL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatalf("predict: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		log.Fatalf("predict: status %d: %s", resp.StatusCode, msg)
	}
	var pred struct {
		RootMS float64 `json:"root_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
		log.Fatalf("predict: %v", err)
	}
	return pred.RootMS
}

func printHealth(frontURL, when string) {
	var h gateway.GatewayHealth
	getJSON(frontURL+"/healthz", &h)
	fmt.Printf("health %s:\n", when)
	for _, r := range h.Replicas {
		fmt.Printf("  %-21s healthy=%-5v requests=%-3d ejections=%d\n",
			r.Name, r.Healthy, r.Requests, r.Ejections)
	}
}

func post(url string) {
	resp, err := http.Post(url, "", nil)
	if err != nil {
		log.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		log.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, msg)
	}
	io.Copy(io.Discard, resp.Body)
}

func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
}
