package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dace/internal/core"
	"dace/internal/plan"
	"dace/internal/serve"
)

// serveCase is one end-to-end serving scenario: concurrency level, target
// hit rate (fraction of requests drawn from a small hot set of repeated
// plans), and the pipeline configuration under test.
type serveCase struct {
	name   string
	conc   int
	hit    float64
	cfg    serve.Config // zero value = the uncached, unbatched PR 2 server
	binary bool         // post compact binary frames instead of JSON bodies
}

// cachedConfig mirrors daced's defaults at bench scale.
func cachedConfig() serve.Config {
	return serve.Config{
		CacheSize:  8192,
		MaxBatch:   64,
		QueueDepth: 8192,
	}
}

// serveCases is the scenario grid: the uncached baseline and the full
// pipeline at matching concurrency, a hit-rate sweep at c=64, and the
// binary-wire variants. Quick mode keeps the acceptance pairs: c=64 at 90%
// repeated plans plus the hot-cache point (hit=99) on both encodings.
func serveCases(quick bool) []serveCase {
	if quick {
		return []serveCase{
			{"serve/uncached/c=64/hit=90", 64, 0.90, serve.Config{}, false},
			{"serve/cached/c=64/hit=90", 64, 0.90, cachedConfig(), false},
			{"serve/cached/c=64/hit=99", 64, 0.99, cachedConfig(), false},
			{"serve/cached-bin/c=64/hit=99", 64, 0.99, cachedConfig(), true},
		}
	}
	return []serveCase{
		{"serve/uncached/c=16/hit=90", 16, 0.90, serve.Config{}, false},
		{"serve/uncached/c=64/hit=90", 64, 0.90, serve.Config{}, false},
		{"serve/cached/c=16/hit=90", 16, 0.90, cachedConfig(), false},
		{"serve/cached/c=64/hit=50", 64, 0.50, cachedConfig(), false},
		{"serve/cached/c=64/hit=90", 64, 0.90, cachedConfig(), false},
		{"serve/cached/c=64/hit=99", 64, 0.99, cachedConfig(), false},
		{"serve/cached-bin/c=64/hit=90", 64, 0.90, cachedConfig(), true},
		{"serve/cached-bin/c=64/hit=99", 64, 0.99, cachedConfig(), true},
	}
}

// workload generates deterministic /predict request bodies: hot requests
// repeat one of a small set of plans verbatim (cacheable), cold requests
// perturb a plan's root cost so every one is a distinct fingerprint. A
// shared cold counter keeps cold bodies unique across warmup and
// measurement, so the measured hit rate stays at the target instead of
// drifting up as "cold" plans recur.
type workload struct {
	hot    [][]byte
	base   []*plan.Plan
	coldID atomic.Int64
}

func newWorkload(plans []*plan.Plan, hotSet int) *workload {
	w := &workload{base: plans}
	for i := 0; i < hotSet; i++ {
		w.hot = append(w.hot, mustBody(plans[i%len(plans)]))
	}
	return w
}

func mustBody(p *plan.Plan) []byte {
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		log.Fatalf("bench: encode plan: %v", err)
	}
	return buf.Bytes()
}

// bodies builds a request sequence of length n at the given hit rate.
func (w *workload) bodies(n int, hit float64, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		if rng.Float64() < hit {
			out[i] = w.hot[rng.Intn(len(w.hot))]
			continue
		}
		id := w.coldID.Add(1)
		p := w.base[int(id)%len(w.base)]
		cold, err := plan.ReadJSON(bytes.NewReader(mustBody(p)))
		if err != nil {
			log.Fatalf("bench: clone plan: %v", err)
		}
		// A sub-ulp-scale cost nudge: a new fingerprint, same workload shape.
		cold.Root.EstCost *= 1 + float64(id)*1e-9
		out[i] = mustBody(cold)
	}
	return out
}

// binary converts a JSON request sequence into compact binary wire frames,
// memoizing by slice identity so the repeated hot bodies convert once and
// keep byte-identical frames (and therefore identical body-cache keys).
func (w *workload) binary(bodies [][]byte) [][]byte {
	memo := make(map[*byte][]byte)
	out := make([][]byte, len(bodies))
	for i, b := range bodies {
		k := &b[0]
		if enc, ok := memo[k]; ok {
			out[i] = enc
			continue
		}
		p, err := plan.ReadJSON(bytes.NewReader(b))
		if err != nil {
			log.Fatalf("bench: decode plan for binary frame: %v", err)
		}
		enc, err := plan.AppendBinary(nil, p)
		if err != nil {
			log.Fatalf("bench: encode binary frame: %v", err)
		}
		memo[k] = enc
		out[i] = enc
	}
	return out
}

// postRetryAfter posts body to target, honoring the server's backpressure
// contract: a 503/429 with Retry-After means "come back later", not
// "crash the client". It backs off for the advertised delay (or an
// escalating default when absent), with full jitter so blocked clients
// don't re-arrive in lockstep, and retries up to 8 attempts. The response
// body is drained and closed; the final status is returned.
func postRetryAfter(client *http.Client, target *url.URL, hdr http.Header, body []byte) (int, error) {
	const maxAttempts = 8
	for attempt := 1; ; attempt++ {
		req := &http.Request{
			Method: http.MethodPost,
			URL:    target,
			Header: hdr,
			Body:   io.NopCloser(bytes.NewReader(body)),
			GetBody: func() (io.ReadCloser, error) {
				return io.NopCloser(bytes.NewReader(body)), nil
			},
			ContentLength: int64(len(body)),
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusTooManyRequests {
			return resp.StatusCode, nil
		}
		if attempt == maxAttempts {
			return resp.StatusCode, fmt.Errorf("backpressured after %d attempts (status %d)", attempt, resp.StatusCode)
		}
		wait := time.Duration(attempt) * 50 * time.Millisecond
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
				wait = time.Duration(secs) * time.Second
			}
		}
		if wait > 2*time.Second {
			wait = 2 * time.Second
		}
		// Full jitter over [wait/2, wait]: the mean backoff stays near the
		// server's ask while the herd decorrelates.
		time.Sleep(wait/2 + time.Duration(rand.Int63n(int64(wait/2)+1)))
	}
}

// benchServe measures end-to-end /predict throughput and latency through
// httptest servers — real HTTP over loopback, concurrent clients — for
// every scenario, verifying first that the pipeline's responses are
// byte-identical to the uncached server's. Appends one Result per case and
// returns the cached/uncached speedup at the acceptance point (c=64,
// hit=90), or 0 when that pair was not measured.
func benchServe(rep *Report, m *core.Model, plans []*plan.Plan, quick bool) float64 {
	n := 4000
	if quick {
		n = 1200
	}
	w := newWorkload(plans, 8)
	perSec := map[string]float64{}

	for _, sc := range serveCases(quick) {
		s := serve.NewWithConfig(m, sc.cfg)
		verifyPipeline(s, m, w)
		srv := httptest.NewServer(s.Handler())

		client := &http.Client{Transport: &http.Transport{
			MaxIdleConns:        sc.conc * 2,
			MaxIdleConnsPerHost: sc.conc * 2,
			DisableCompression:  true, // no Accept-Encoding header; responses are never gzipped here
		}}
		contentType := "application/json"
		if sc.binary {
			contentType = plan.BinaryContentType
		}
		// The URL is parsed once, outside the loop: the harness times request
		// serving, not client-side URL parsing on every Post.
		target, err := url.Parse(srv.URL + "/predict")
		if err != nil {
			log.Fatalf("bench: %s: %v", sc.name, err)
		}
		run := func(bodies [][]byte, record []float64) {
			var next atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < sc.conc; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Per-goroutine header, reused across requests. User-Agent nil
					// suppresses the default Go-http-client header entirely —
					// fewer bytes for the server under test to parse.
					hdr := http.Header{"Content-Type": []string{contentType}, "User-Agent": nil}
					for {
						i := int(next.Add(1)) - 1
						if i >= len(bodies) {
							return
						}
						body := bodies[i]
						t0 := time.Now()
						status, err := postRetryAfter(client, target, hdr, body)
						if err != nil {
							log.Fatalf("bench: %s: %v", sc.name, err)
						}
						if status != http.StatusOK {
							log.Fatalf("bench: %s: status %d", sc.name, status)
						}
						if record != nil {
							record[i] = float64(time.Since(t0))
						}
					}
				}()
			}
			wg.Wait()
		}

		// Request sequences are generated (and, for binary scenarios,
		// re-encoded) before the clock starts: workload generation decodes and
		// re-encodes every cold plan, which is harness cost, not serving cost.
		warmBodies := w.bodies(n/4, sc.hit, 7) // warmup: fill caches, warm conns
		measBodies := w.bodies(n, sc.hit, 11)
		if sc.binary {
			warmBodies, measBodies = w.binary(warmBodies), w.binary(measBodies)
		}
		run(warmBodies, nil)
		lat := make([]float64, n)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		run(measBodies, lat)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)

		sort.Float64s(lat)
		q := func(p float64) float64 { return lat[int(p*float64(len(lat)-1))] }
		perSec[sc.name] = float64(n) / elapsed.Seconds()
		rep.Results = append(rep.Results, Result{
			Name:        sc.name,
			Runs:        1,
			OpsPerRun:   n,
			PlansPerSec: perSec[sc.name],
			NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
			P50Ns:       q(0.50),
			P95Ns:       q(0.95),
			P99Ns:       q(0.99),
			AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
			BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
			GCPauseMs:   float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
			NumGC:       after.NumGC - before.NumGC,
			Gomaxprocs:  runtime.GOMAXPROCS(0),
		})
		fmt.Fprintf(os.Stderr, "bench: %s done (%.0f req/s)\n", sc.name, perSec[sc.name])

		srv.Close()
		s.Close()
		client.CloseIdleConnections()
	}

	base, cached := perSec["serve/uncached/c=64/hit=90"], perSec["serve/cached/c=64/hit=90"]
	if base == 0 {
		return 0
	}
	return cached / base
}

// verifyPipeline asserts the serving contract before any timing: for every
// hot plan and a handful of cold ones, the configured pipeline's response
// bytes must equal the plain uncached server's — bitwise-identical
// predictions, not approximately equal ones — on both wire encodings.
func verifyPipeline(s *serve.Server, m *core.Model, w *workload) {
	plain := serve.New(m)
	probe := append(append([][]byte{}, w.hot...), w.bodies(4, 0, 3)...)
	bins := w.binary(probe)
	for i, body := range probe {
		want := postOnce(plain, body, "application/json")
		for _, rep := range []int{0, 1} { // second pass hits the cache
			if got := postOnce(s, body, "application/json"); !bytes.Equal(got, want) {
				log.Fatalf("bench: pipeline response diverged from uncached server (probe %d, pass %d)", i, rep)
			}
			if got := postOnce(s, bins[i], plan.BinaryContentType); !bytes.Equal(got, want) {
				log.Fatalf("bench: binary-wire response diverged from uncached server (probe %d, pass %d)", i, rep)
			}
		}
	}
}

func postOnce(s *serve.Server, body []byte, contentType string) []byte {
	req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		log.Fatalf("bench: verify request failed with status %d", rec.Code)
	}
	return rec.Body.Bytes()
}
