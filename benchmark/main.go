// Command benchmark is the repository's one performance instrument: five
// closed-loop workloads over the serving stack and the library, the same
// seven end-to-end metrics on each, and a per-layer budget timed from
// outside. BENCHMARK.json names what it reports; README.md says why each
// workload exists and which layer should move which number.
//
//	go run ./benchmark -workload serve_miss -seed 1
//	go run ./benchmark -workload all -out runs.jsonl
//	go run ./benchmark -workload serve_miss -trace 1
//	go run ./benchmark -compare a.jsonl b.jsonl
//
// Every run verifies answers bitwise before timing, checks every response
// while timing, prints each metric by name with its unit, and ends with one
// JSON line {"correct","attempted","failed","metrics"}. The exit code is
// non-zero if any operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dace/internal/metrics"
	"dace/internal/serve"
)

// specPath is read relative to the working directory: run from the root of
// the repository, as BENCHMARK.json's command does.
const specPath = "BENCHMARK.json"

type options struct {
	workload string
	seed     int64
	seconds  float64
	rounds   int
	round    time.Duration
	trace    bool
	out      string

	// Fixed for every reported run; the unit tests shrink them.
	warmup   time.Duration // untimed, before the first round
	setups   int           // setup repetitions; setup_s is their median
	traceDir string        // where a traced run writes trace_<workload>.jsonl
	sz       sizes
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run, as appended to -out.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      bool              `json:"trace"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Values     map[string]metric `json:"values"`
	Rounds     []roundStats      `json:"rounds"`
	Setups     []setupStats      `json:"setups"`
}

// setupStats is one setup repetition.
type setupStats struct {
	Seconds    float64 `json:"seconds"`
	HostRefMS  float64 `json:"host_ref_ms"` // mean of the reference kernel before and after
	CPUShare   float64 `json:"cpu_share"`
	HostFactor float64 `json:"host_factor"`
}

// verdict is the last line of standard output.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	compare := flag.Bool("compare", false, "compare two result files (-compare a.jsonl b.jsonl) against the bounds in "+specPath)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "drives request order, template choice and perturbation draws")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured seconds, split evenly over -rounds")
	flag.IntVar(&o.rounds, "rounds", 6, "measured rounds; every latency and throughput figure is the median over rounds")
	flag.DurationVar(&o.round, "round", 0, "round length (default -seconds / -rounds)")
	flag.IntVar(&trace, "trace", 0, "1: traced run - client spans, layer replay, per-layer metrics")
	flag.StringVar(&o.out, "out", "", "append this run's result as one JSON line")
	flag.Parse()
	o.trace = trace != 0
	o.sz, o.warmup, o.setups, o.traceDir = fullSizes, 1500*time.Millisecond, 3, filepath.Join("benchmark", "out")

	spec, err := loadSpec(specPath)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.jsonl b.jsonl"))
		}
		a, err := loadResults(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := loadResults(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !compareSets(os.Stdout, spec, a, b) {
			os.Exit(1)
		}
		return
	}
	if o.workload == "all" {
		os.Exit(runAll(os.Args[1:]))
	}
	w := findWorkload(o.workload)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q (want %s, or all)", o.workload, strings.Join(workloadNames(), ", ")))
	}
	if o.round <= 0 {
		o.round = time.Duration(o.seconds / float64(o.rounds) * float64(time.Second))
	}
	res, err := run(w, o)
	if err != nil {
		fatal(err)
	}
	if o.out != "" {
		if err := appendResult(o.out, res); err != nil {
			fatal(err)
		}
	}
	if err := report(os.Stdout, spec, res); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runAll runs every workload in its own process, so rss_peak_mb and the GC
// state of one never leak into the next.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	for _, name := range workloadNames() {
		fmt.Printf("== %s ==\n", name)
		cmd := exec.Command(self, append(args[:len(args):len(args)], "-workload", name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// procSnap is the process state at one edge of the measured window.
type procSnap struct {
	mem    runtime.MemStats
	cpu    time.Duration
	health serve.Health
}

func snapProc(fx *fixture) (procSnap, error) {
	s := procSnap{cpu: processCPU()}
	var err error
	s.health, err = fx.health()
	runtime.ReadMemStats(&s.mem)
	return s, err
}

// run executes one workload: setup (repeated), verify, warm-up, rounds.
func run(w *workloadDef, o options) (*result, error) {
	vals := map[string]metric{}
	set := func(name string, v float64, unit string) { vals[name] = metric{v, unit} }

	// Setup, repeated: setup_s is the median so that one slow repetition on
	// a shared box does not read as a regression. The traced run reports no
	// setup_s and sets up once. The reference kernel brackets each setup.
	reps := o.setups
	if o.trace {
		reps = 1
	}
	var fx *fixture
	var setups []setupStats
	var raw, norm []float64
	phases := map[string][]float64{}
	refBefore := hostRefMS()
	for i := 0; i < reps; i++ {
		if fx != nil {
			fx.close()
		}
		var err error
		cpu0, t0 := processCPU(), time.Now()
		if fx, err = buildFixture(o.sz, w.prefill); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		st := setupStats{Seconds: fx.setupSeconds(), CPUShare: min(1, (processCPU()-cpu0).Seconds()/time.Since(t0).Seconds())}
		refAfter := hostRefMS()
		st.HostRefMS, refBefore = (refBefore+refAfter)/2, refAfter
		st.HostFactor = hostFactor(st.HostRefMS, st.CPUShare)
		setups = append(setups, st)
		raw, norm = append(raw, st.Seconds), append(norm, st.Seconds/st.HostFactor)
		for name, s := range fx.phases {
			phases[name] = append(phases[name], s)
		}
	}
	defer fx.close()
	set("setup_s", median(norm), "s")
	set("raw.setup_s", median(raw), "s")
	for name, s := range phases {
		set("setup."+name+"_s", median(s), "s")
	}

	t0 := time.Now()
	qerrs, err := w.verify(fx)
	if err != nil {
		return nil, err
	}
	set("setup.verify_s", time.Since(t0).Seconds(), "s")
	qsum := metrics.Summarize(qerrs)
	set("qerror_median", qsum.Median, "ratio")
	set("qerror_p90", qsum.P90, "ratio")

	set("calib.timer_overshoot_us", timerOvershoot().Seconds()*1e6, "us")
	rtt, err := loopbackRTT()
	if err != nil {
		return nil, err
	}
	set("calib.loopback_rtt_us", rtt.Seconds()*1e6, "us")

	clients := make([]client, w.clients)
	for i := range clients {
		if clients[i], err = w.newClient(fx, i, o.seed); err != nil {
			return nil, err
		}
		defer clients[i].close()
	}
	lp := newLoop(clients)
	runtime.GC()
	lp.round(o.warmup, false)

	// Measured window. The traced run has a third as many rounds, each
	// followed by a twin with client spans on; alternating them keeps the
	// box's drift out of the difference, which is the tracing overhead.
	nRounds := o.rounds
	if o.trace {
		nRounds = max(1, o.rounds/3)
		for range clients {
			lp.spans = append(lp.spans, make([]span, 0, maxClientSpans))
		}
	}
	before, err := snapProc(fx)
	if err != nil {
		return nil, err
	}
	var rounds, traced []roundStats
	for i := 0; i < nRounds; i++ {
		rounds = append(rounds, lp.round(o.round, false))
		if o.trace {
			traced = append(traced, lp.round(o.round, true))
		}
	}
	after, err := snapProc(fx)
	if err != nil {
		return nil, err
	}

	res := &result{Workload: w.name, Seed: o.seed, Trace: o.trace, GOMAXPROCS: runtime.GOMAXPROCS(0), Values: vals, Rounds: rounds, Setups: setups}
	for _, r := range append(rounds[:len(rounds):len(rounds)], traced...) {
		res.Attempted += r.Ops
		res.Failed += r.Failed
	}
	over := func(f func(roundStats) float64) float64 { return overRounds(rounds, f) }
	// The gated figures are host-normalised round by round (calib.go); the
	// wall-clock readings are kept beside them as raw.*.
	set("throughput_ops_s", over(func(r roundStats) float64 { return r.Throughput * r.HostFactor }), "ops/s")
	set("latency_p50_ms", over(func(r roundStats) float64 { return r.P50ms / r.HostFactor }), "ms")
	set("latency_p90_ms", over(func(r roundStats) float64 { return r.P90ms / r.HostFactor }), "ms")
	set("raw.throughput_ops_s", over(func(r roundStats) float64 { return r.Throughput }), "ops/s")
	set("raw.latency_p50_ms", over(func(r roundStats) float64 { return r.P50ms }), "ms")
	set("raw.latency_p90_ms", over(func(r roundStats) float64 { return r.P90ms }), "ms")
	set("client.latency_p99_ms", over(func(r roundStats) float64 { return r.P99ms }), "ms")
	maxMS := 0.0
	for _, r := range rounds {
		maxMS = max(maxMS, r.MaxMS)
	}
	set("client.latency_max_ms", maxMS, "ms")
	set("client.round_spread_pct", roundSpreadPct(rounds), "%")
	set("calib.host_ref_ms", over(func(r roundStats) float64 { return r.HostRefMS }), "ms")
	set("calib.cpu_share", over(func(r roundStats) float64 { return r.CPUShare }), "ratio")
	set("calib.host_factor", over(func(r roundStats) float64 { return r.HostFactor }), "ratio")
	set("failed_ops_pct", 100*float64(res.Failed)/float64(res.Attempted), "%")
	windowMetrics(set, before, after, res.Attempted)

	if o.trace {
		res.Rounds = append(res.Rounds, traced...)
		tput := overRounds(traced, func(r roundStats) float64 { return r.Throughput })
		set("trace.overhead_pct", 100*(1-tput/vals["raw.throughput_ops_s"].Value), "%")

		tr := &trace{epoch: lp.epoch, req: 1 << 26} // above every client.op request id
		for _, sp := range lp.spans {
			tr.spans = append(tr.spans, sp...)
		}
		if err := replayLayers(fx, tr, set); err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		path := filepath.Join(o.traceDir, "trace_"+w.name+".jsonl")
		if err := writeTrace(path, tr.spans); err != nil {
			return nil, err
		}
		fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
	}

	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	set("rss_peak_mb", rss, "MB")
	res.Correct = res.Failed == 0
	return res, nil
}

// maxClientSpans bounds the client.op spans one client keeps in a traced
// run; later operations are still timed, just not kept as spans.
const maxClientSpans = 1 << 14

// windowMetrics derives the process and /healthz figures of the measured
// window from its two edge snapshots.
func windowMetrics(set func(string, float64, string), a, b procSnap, ops int) {
	n := float64(max(ops, 1))
	set("proc.allocs_per_op", float64(b.mem.Mallocs-a.mem.Mallocs)/n, "count")
	set("proc.bytes_per_op", float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/n, "B")
	set("proc.gc_cycles", float64(b.mem.NumGC-a.mem.NumGC), "count")
	set("proc.gc_pause_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6, "ms")
	set("proc.cpu_us_per_op", float64((b.cpu-a.cpu).Microseconds())/n, "us")
	set("proc.heap_inuse_mb", float64(b.mem.HeapInuse)/(1<<20), "MB")

	ratio := func(hit, miss uint64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return float64(hit) / float64(hit+miss)
	}
	ha, hb := a.health, b.health
	set("serve.body_cache_hit_ratio", ratio(hb.BodyCache.Hits-ha.BodyCache.Hits, hb.BodyCache.Misses-ha.BodyCache.Misses), "ratio")
	set("serve.plan_cache_hit_ratio", ratio(hb.PlanCache.Hits-ha.PlanCache.Hits, hb.PlanCache.Misses-ha.PlanCache.Misses), "ratio")
	set("serve.cache_evictions", float64(hb.BodyCache.Evictions-ha.BodyCache.Evictions+hb.PlanCache.Evictions-ha.PlanCache.Evictions), "count")
	batches := hb.Queue.Batches - ha.Queue.Batches
	mean := 0.0
	if batches > 0 {
		mean = float64(hb.Queue.Requests-ha.Queue.Requests) / float64(batches)
	}
	set("serve.batch_size_mean", mean, "count")
	// Model forwards the server ran in the window: one per micro-batched
	// request plus one per plan-cache miss that bypassed the batcher.
	set("serve.model_forwards", float64(hb.PlanCache.Misses-ha.PlanCache.Misses), "count")
	set("serve.queue_depth_hwm", float64(hb.Queue.DepthHWM), "count")
	set("serve.rejected", float64(hb.Queue.Rejected-ha.Queue.Rejected), "count")
	set("serve.inflight_hwm", float64(hb.InflightHWM), "count")
}

// rssPeakMB reads VmHWM, the process's peak resident set, harness included.
func rssPeakMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("benchmark: no VmHWM in /proc/self/status")
}

// appendResult adds one JSON line to path.
func appendResult(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints every value by name with its unit, the per-round figures,
// and the verdict line: exactly the metrics the spec names for the run's
// mode. A metric the spec names that the run did not produce, or produced
// in another unit, is an error.
func report(out io.Writer, spec *benchSpec, res *result) error {
	fmt.Fprintf(out, "workload=%s seed=%d trace=%v gomaxprocs=%d\n", res.Workload, res.Seed, res.Trace, res.GOMAXPROCS)
	for i, r := range res.Rounds {
		note := ""
		if r.Truncated {
			note = " (sample buffer full: percentiles are of the first samples only)"
		}
		fmt.Fprintf(out, "round %d: ops=%d failed=%d throughput=%.1f ops/s p50=%.4f ms p90=%.4f ms p99=%.4f ms max=%.3f ms host_ref=%.3f ms cpu_share=%.2f host_factor=%.3f%s\n",
			i+1, r.Ops, r.Failed, r.Throughput, r.P50ms, r.P90ms, r.P99ms, r.MaxMS, r.HostRefMS, r.CPUShare, r.HostFactor, note)
	}
	names := make([]string, 0, len(res.Values))
	for name := range res.Values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Values[name]
		fmt.Fprintf(out, "%-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	defs := spec.EndToEnd
	if res.Trace {
		defs = spec.PerLayer
	}
	v := verdict{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		m, ok := res.Values[d.Name]
		if !ok || m.Unit != d.Unit {
			return fmt.Errorf("%s: the spec wants %s in %s, the run has %+v", res.Workload, d.Name, d.Unit, m)
		}
		v.Metrics[d.Name] = m
	}
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
