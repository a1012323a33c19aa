package main

import (
	"bytes"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"dace/internal/plan"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	s := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want uint32
	}{{0.5, 50}, {0.9, 90}, {0.91, 100}, {0.99, 100}, {1, 100}, {0.1, 10}, {0.05, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]uint32{7}, 0.9); got != 7 {
		t.Errorf("single sample: got %d", got)
	}
}

func TestMedianOfRounds(t *testing.T) {
	rounds := []roundStats{{Throughput: 100}, {Throughput: 400}, {Throughput: 110}, {Throughput: 90}, {Throughput: 105}}
	if got := overRounds(rounds, func(r roundStats) float64 { return r.Throughput }); got != 105 {
		t.Errorf("odd count: got %v, want 105 (one wild round must not move it)", got)
	}
	if got := overRounds(rounds[:4], func(r roundStats) float64 { return r.Throughput }); got != 105 {
		t.Errorf("even count: got %v, want mean of the middle two = 105", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if !slices.Equal(xs, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// Values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		got, ok := quartiles(c.xs)
		if !ok || got != c.want {
			t.Errorf("quartiles(%v) = %v %v, want %v", c.xs, got, ok, c.want)
		}
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Error("one value has no quartiles")
	}
	if s, ok := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !ok || s != 1 {
		t.Errorf("spread = %v %v, want (8.25-2.75)/5.5 = 1", s, ok)
	}
}

func TestHostFactor(t *testing.T) {
	if f := hostFactor(refNominalMS, 1); f != 1 {
		t.Errorf("quiet box, CPU-bound round: factor %v, want 1", f)
	}
	if f := hostFactor(2*refNominalMS, 0); f != 1 {
		t.Errorf("a round that only waited is not slowed by a slow core: factor %v, want 1", f)
	}
	slow := hostFactor(1.2*refNominalMS, 1)
	if slow <= 1 || slow >= 1.2 {
		t.Errorf("20%% slow box: factor %v, want between 1 and 1.2 (shrunk)", slow)
	}
	if half := hostFactor(1.2*refNominalMS, 0.5); half <= 1 || half >= slow {
		t.Errorf("half-waiting round: factor %v, want between 1 and %v", half, slow)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "handler", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},  // adjacent to b
		{Name: "b", Start: 30, End: 50, Parent: 0},  // has a nested child
		{Name: "b1", Start: 35, End: 45, Parent: 2}, // nested: comes out of b, not out of handler twice
		{Name: "c", Start: 45, End: 60, Parent: 0},  // overlaps b by 5: counted once
		{Name: "d", Start: 90, End: 120, Parent: 0}, // sticks out: clipped to the parent
		{Name: "lone", Start: 200, End: 207, Parent: -1},
	}
	want := []int64{100 - (20 + 20 + 10 + 10), 20, 10, 10, 15, 30, 7}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	spans[1].N = 4
	self, total := layerTimes(spans)
	if self["a"][0] != 5 || total["a"][0] != 5 {
		t.Errorf("per-call time of a 4-call span: self %v total %v, want 5", self["a"], total["a"])
	}
	if self["handler"][0] != 40 || total["handler"][0] != 100 {
		t.Errorf("handler: self %v total %v", self["handler"], total["handler"])
	}
}

func TestChildSpansAreRebasedIntoTheParent(t *testing.T) {
	tr := &trace{epoch: time.Now()}
	p := tr.root("handler", 1, func() { time.Sleep(2 * time.Millisecond) })
	var cur int64
	tr.child(p, &cur, "stage1", 1, 1, func() { time.Sleep(200 * time.Microsecond) })
	c2 := tr.child(p, &cur, "stage2", 1, 2, func() {})
	if s := tr.spans[c2]; s.Start != tr.spans[p].Start+(tr.spans[1].End-tr.spans[1].Start) || !s.Replayed || s.Req != tr.spans[p].Req {
		t.Errorf("second child not laid after the first inside the parent: %+v (parent %+v)", s, tr.spans[p])
	}
	self := selfTimes(tr.spans)
	if self[p] >= tr.spans[p].End-tr.spans[p].Start || self[p] <= 0 {
		t.Errorf("parent self time %d should be its duration minus the stages", self[p])
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricDef{
			{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.10},
			{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		},
	}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	set := func(tput, lat []float64) *resultSet {
		return &resultSet{values: map[string]map[string][]float64{"w": {"throughput_ops_s": tput, "latency_p50_ms": lat}}, failed: map[string]int{}}
	}
	steady := []float64{100, 101, 99, 100, 102}
	lat := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	cases := []struct {
		name string
		a, b *resultSet
		want map[string]string // metric → verdict
		ok   bool
	}{
		{"same", set(steady, lat), set(steady, lat), map[string]string{"throughput_ops_s": "ok", "latency_p50_ms": "ok"}, true},
		{"slower", set(steady, lat), set([]float64{80, 81, 79, 80, 82}, lat), map[string]string{"throughput_ops_s": "regressed", "latency_p50_ms": "ok"}, false},
		{"faster is never a regression", set(steady, lat), set([]float64{150, 151, 149, 150, 152}, lat), map[string]string{"throughput_ops_s": "ok"}, true},
		{"noisy", set(steady, lat), set([]float64{60, 140, 100, 80, 120}, lat), map[string]string{"throughput_ops_s": "unresolved"}, false},
		{"noisy but every run better", set(steady, lat), set([]float64{200, 400, 300, 250, 350}, lat), map[string]string{"throughput_ops_s": "ok"}, true},
		{"latency up", set(steady, lat), set(steady, []float64{1.3, 1.31, 1.29, 1.3, 1.32}), map[string]string{"latency_p50_ms": "regressed"}, false},
		{"metric missing from b", set(steady, lat), set(steady, nil), map[string]string{"latency_p50_ms": "missing"}, false},
		{"workload missing from b", set(steady, lat), &resultSet{values: map[string]map[string][]float64{}, failed: map[string]int{}},
			map[string]string{"throughput_ops_s": "missing", "latency_p50_ms": "missing"}, false},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if ok := compareSets(&out, spec, c.a, c.b); ok != c.ok {
			t.Errorf("%s: ok = %v, want %v\n%s", c.name, ok, c.ok, out.String())
		}
		for metric, want := range c.want {
			found := false
			for _, line := range strings.Split(out.String(), "\n") {
				f := strings.Fields(line)
				if len(f) >= 3 && f[1] == metric {
					found = true
					if f[2] != want {
						t.Errorf("%s: %s judged %s, want %s", c.name, metric, f[2], want)
					}
				}
			}
			if !found {
				t.Errorf("%s: no row for %s", c.name, metric)
			}
		}
	}
	// Failed operations fail the comparison whatever the timings say.
	bad := set(steady, lat)
	bad.failed["w"] = 1
	if compareSets(io.Discard, spec, set(steady, lat), bad) {
		t.Error("a set with failed operations compared ok")
	}
	// A workload only the files know is still judged.
	extra := set(steady, lat)
	extra.values["surprise"] = map[string][]float64{"throughput_ops_s": steady}
	if compareSets(io.Discard, spec, extra, set(steady, lat)) {
		t.Error("a workload present in one set only compared ok")
	}
}

func TestPerturbationNeverRepeats(t *testing.T) {
	p := &plan.Plan{Database: "imdb", Root: &plan.Node{Type: plan.NodeType(1), EstRows: 10, EstCost: 1234.5678, ActualRows: 9, ActualMS: 3,
		Children: []*plan.Node{{Type: plan.NodeType(0), EstRows: 5, EstCost: 99.5, ActualRows: 4, ActualMS: 1}}}}
	tmpl, err := newJSONTemplate(p)
	if err != nil {
		t.Fatal(err)
	}
	// 10^6 draws across the partitions the measured clients, a cache fill
	// and a replay of one run use: every value is distinct and the change
	// stays below 2^-18.
	const draws = 1_000_000
	seen := make([]uint64, 0, draws)
	parts := []*uniq{newUniq(0, 1023), newUniq(1, 1023), newUniq(2, 7), newUniq(fillerPartition, 0), newUniq(replayPartition+17, 0)}
	for i := 0; i < draws; i++ {
		v := perturb(tmpl.base, parts[i%len(parts)].draw())
		if math.Abs(v-tmpl.base)/tmpl.base > 1.0/(1<<18) {
			t.Fatalf("draw %d moved est_cost from %v to %v", i, tmpl.base, v)
		}
		seen = append(seen, math.Float64bits(v))
	}
	slices.Sort(seen)
	if n := len(slices.Compact(seen)); n != draws {
		t.Fatalf("%d distinct values in %d draws", n, draws)
	}

	// On a sample, through the real decoder: distinct bodies of constant
	// length, distinct fingerprints, the value read back bit for bit.
	var dec plan.Decoder
	u := newUniq(3, 7)
	fps := map[plan.Fingerprint]bool{}
	mine := tmpl.clone()
	for i := 0; i < 5000; i++ {
		k := u.draw()
		body := mine.patch(k)
		if len(body) != len(tmpl.body) {
			t.Fatalf("draw %d changed the body length", i)
		}
		f, err := dec.Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		if f.EstCost[0] != perturb(tmpl.base, k) {
			t.Fatalf("draw %d: decoder read %v, generator wrote %v", i, f.EstCost[0], perturb(tmpl.base, k))
		}
		fps[f.Fingerprint] = true
	}
	if len(fps) != 5000 {
		t.Fatalf("%d distinct fingerprints in 5000 draws", len(fps))
	}
	if bytes.Equal(tmpl.body, mine.body) {
		t.Error("patching a clone must not leave it equal to the template")
	}

	// The binary frame: every plan of every draw is a new fingerprint.
	bb, err := newBinBatch([]*plan.Plan{p, p, p, p})
	if err != nil {
		t.Fatal(err)
	}
	clear(fps)
	for i := 0; i < 500; i++ {
		batch, err := plan.NewBinaryBatch(bb.patch(u))
		if err != nil {
			t.Fatal(err)
		}
		for batch.Len() > 0 {
			f, err := batch.Next(&dec)
			if err != nil {
				t.Fatal(err)
			}
			fps[f.Fingerprint] = true
		}
	}
	if len(fps) != 2000 {
		t.Fatalf("%d distinct fingerprints in 2000 batched plans", len(fps))
	}
}

var smokeSizes = sizes{
	trainPerDB: 16, epochs: 2, holdout: 48, m2: 24, verify: 24, hot: 24, batch: 8,
	dpQueries: 6, fineTune: 8, trainSlice: 8, adaptPredict: 8, cacheSize: 128, replay: 40,
}

// The spec and the program must name the same workloads, and every smoke
// run must produce every metric the spec names for its mode, in its unit —
// report fails otherwise.
func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	o := options{seed: 1, rounds: 1, round: 200 * time.Millisecond, warmup: 50 * time.Millisecond, setups: 1, sz: smokeSizes, traceDir: t.TempDir()}
	smoke := func(w *workloadDef, o options) {
		res, err := run(w, o)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", w.name, o.trace, err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, o.trace, res.Correct, res.Attempted, res.Failed)
		}
		var out bytes.Buffer
		if err := report(&out, spec, res); err != nil {
			t.Errorf("%s trace=%v: %v", w.name, o.trace, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":true,"attempted":`) {
			t.Errorf("%s trace=%v: last line is not the verdict: %s", w.name, o.trace, last)
		}
	}
	for _, w := range workloads {
		smoke(w, o)
	}
	// The layer replay is the same whatever workload ran; one traced run
	// covers it.
	o.trace = true
	smoke(findWorkload("serve_miss"), o)
}
